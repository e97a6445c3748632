// Package expotest checks what a daemon's /metrics says against the
// operator-facing contract: the exposition format, the naming rules and the
// registry table of DESIGN.md §8. Both daemons' tests scrape themselves and
// call it.
package expotest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

var (
	nameRE   = regexp.MustCompile(`^(bitmapfilter|bfwall)(_[a-z0-9]+)+$`)
	headerRE = regexp.MustCompile(`^# (HELP|TYPE) (\S+) (.+)$`)
	sampleRE = regexp.MustCompile(`^([^ {]+)(\{[a-z_]+="(?:[^"\\]|\\.)*"\})? (\S+)$`)
	rowRE    = regexp.MustCompile("(?m)^\\| `([a-z0-9_]+)(?:\\{[^`]*\\})?` \\| (counter|gauge) \\| ([a-z, ]+) \\|")
)

// Check parses one scrape and returns the kind of every family in it, and
// what breaks the contract: a family is one HELP line, then one TYPE line,
// then its samples, all before the next family opens; its kind is counter or
// gauge; its name is the project's snake_case, ending in _total exactly when
// it counts.
func Check(scrape string) (kinds map[string]string, problems []string) {
	kinds = make(map[string]string)
	helped := make(map[string]bool)
	var help, open string // the family a HELP line announced, the family whose samples may follow
	bad := func(format string, a ...any) { problems = append(problems, fmt.Sprintf(format, a...)) }
	for _, line := range strings.Split(strings.TrimSuffix(scrape, "\n"), "\n") {
		switch h := headerRE.FindStringSubmatch(line); {
		case h != nil && h[1] == "HELP":
			if help = h[2]; helped[help] {
				bad("%s: opened twice", help)
			}
			helped[help] = true
		case h != nil:
			name, kind := h[2], h[3]
			if help != name {
				bad("%s: TYPE without its HELP on the line before", name)
			}
			if _, dup := kinds[name]; dup {
				bad("%s: opened twice", name)
			}
			if kind != "counter" && kind != "gauge" {
				bad("%s: kind %q, want counter or gauge", name, kind)
			}
			if !nameRE.MatchString(name) {
				bad("%s: name does not match %s", name, nameRE)
			}
			if (kind == "counter") != strings.HasSuffix(name, "_total") {
				bad("%s: a %s; _total is for counters, and every counter has it", name, kind)
			}
			kinds[name], open, help = kind, name, ""
		default:
			m := sampleRE.FindStringSubmatch(line)
			if m == nil {
				bad("not a header and not a sample: %q", line)
			} else if _, err := strconv.ParseFloat(m[3], 64); err != nil || m[1] != open {
				bad("%s: sample outside its family's block, or not a number: %q", m[1], line)
			}
		}
	}
	return kinds, problems
}

// Diff holds the families of a daemon's scrapes against the rows of DESIGN.md
// §8's registry table that name the daemon — "| `name{labels}` | kind |
// daemons | meaning |" — and lists what they disagree on, in both directions.
func Diff(emitted map[string]string, design, daemon string) (problems []string) {
	rows := make(map[string]string)
	for _, m := range rowRE.FindAllStringSubmatch(design, -1) {
		if strings.Contains(m[3], daemon) {
			rows[m[1]] = m[2]
		}
	}
	for name, kind := range emitted {
		if rows[name] != kind {
			problems = append(problems, fmt.Sprintf("%s: emitted as a %s, DESIGN.md §8 has %q", name, kind, rows[name]))
		}
	}
	for name := range rows {
		if emitted[name] == "" {
			problems = append(problems, name+": a row of DESIGN.md §8 that nothing emits")
		}
	}
	return problems
}
