package expotest

import (
	"strings"
	"testing"
)

const design = "| series | type | daemon | meaning |\n|---|---|---|---|\n" +
	"| `bitmapfilter_good_total` | counter | bfother, bfwall | documented |\n" +
	"| `bitmapfilter_depth{lane=\"i\"}` | gauge | bfwall | documented, labelled |\n" +
	"| `bitmapfilter_served` | gauge | bfother | the other daemon's |\n"

const good = "# HELP bitmapfilter_good_total Good.\n# TYPE bitmapfilter_good_total counter\nbitmapfilter_good_total 1\n" +
	"# HELP bitmapfilter_depth Depth.\n# TYPE bitmapfilter_depth gauge\nbitmapfilter_depth{lane=\"0\"} 2\nbitmapfilter_depth{lane=\"a\\\"b\"} 1.5e-06\n"

// TestCheck: the checker passes a conforming scrape and fails each broken
// one by name. The rows stand where the metricname analyzer's golden cases
// stood (testdata/metricname/m), now on scrape text instead of literals.
func TestCheck(t *testing.T) {
	family := func(name, kind string) string {
		return "# HELP " + name + " Help.\n# TYPE " + name + " " + kind + "\n" + name + " 1\n"
	}
	for _, tc := range []struct{ name, scrape, want string }{
		{"conforming", good, ""},
		// The two the issue names: an emitted series with no row, a family opened twice.
		{"no row (was: not documented)", good + family("bitmapfilter_undocumented_total", "counter"), `bitmapfilter_undocumented_total: emitted as a counter, DESIGN.md §8 has ""`},
		{"opened twice (was: registered twice)", good + family("bitmapfilter_good_total", "counter"), "bitmapfilter_good_total: opened twice"},
		{"kind (was: invalid Prometheus type)", good + family("bitmapfilter_reg_total", "meter"), `kind "meter"`},
		{"case (was: not snake_case)", good + family("bitmapfilter_BadCase", "gauge"), "bitmapfilter_BadCase: name does not match"},
		{"underscores (was: not snake_case)", good + family("bitmapfilter__double_total", "counter"), "bitmapfilter__double_total: name does not match"},
		// What a scanner of literals could not see.
		{"a prefix the analyzer skipped", good + family("bfwal_frames_total", "counter"), "bfwal_frames_total: name does not match"},
		{"counter without _total", good + family("bitmapfilter_marks", "counter"), "_total is for counters"},
		{"gauge with _total", good + family("bitmapfilter_marks_total", "gauge"), "_total is for counters"},
		{"kind differs from the row", strings.Replace(good, "depth gauge", "depth counter", 1), "bitmapfilter_depth: emitted as a counter"},
		{"a row nothing emits", family("bitmapfilter_good_total", "counter"), "bitmapfilter_depth: a row of DESIGN.md §8 that nothing emits"},
		{"no # HELP", good + "# TYPE bitmapfilter_x gauge\nbitmapfilter_x 1\n", "bitmapfilter_x: TYPE without its HELP"},
		{"sample before its header", "bitmapfilter_good_total 1\n" + good, "bitmapfilter_good_total: sample outside"},
		{"families interleaved", good + "bitmapfilter_good_total 2\n", "bitmapfilter_good_total: sample outside"},
		{"not a number", strings.Replace(good, "} 2\n", "} two\n", 1), "not a number"},
		{"two labels", strings.Replace(good, `{lane="0"}`, `{lane="0",x="1"}`, 1), "not a header and not a sample"},
	} {
		kinds, problems := Check(tc.scrape)
		problems = append(problems, Diff(kinds, design, "bfwall")...)
		switch all := strings.Join(problems, "\n"); {
		case tc.want == "" && len(problems) > 0:
			t.Errorf("%s: %s", tc.name, all)
		case tc.want != "" && !strings.Contains(all, tc.want):
			t.Errorf("%s: problems %q, want one with %q", tc.name, all, tc.want)
		}
	}
	// Rows are a daemon's when they name it: bfother's are not bfwall's.
	if problems := Diff(map[string]string{"bitmapfilter_good_total": "counter", "bitmapfilter_served": "gauge"}, design, "bfother"); len(problems) > 0 {
		t.Errorf("bfother's rows: %q", problems)
	}
}
