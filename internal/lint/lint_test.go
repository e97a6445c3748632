package lint_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bitmapfilter/internal/lint"
	"bitmapfilter/internal/lint/linttest"
)

// The golden suites: each testdata package carries // want annotations
// (or an explicit ok-marker), so every analyzer is proven both to fire
// on violations and to stay silent on conforming code. The synthetic
// import paths exercise the path-sensitive rules from both sides.

func TestWallclockDeterministic(t *testing.T) {
	linttest.Run(t, "testdata/wallclock/det", "example.com/internal/det", lint.WallclockAnalyzer)
}

func TestWallclockAllowlist(t *testing.T) {
	// Same constructs as the det package, but under an allowlisted leaf:
	// zero diagnostics expected.
	linttest.Run(t, "testdata/wallclock/allowed", "example.com/internal/live", lint.WallclockAnalyzer)
}

func TestHotpath(t *testing.T) {
	linttest.Run(t, "testdata/hotpath/hot", "example.com/internal/hot", lint.HotpathAnalyzer)
}

func TestLockguard(t *testing.T) {
	linttest.Run(t, "testdata/lockguard/guard", "example.com/internal/guard", lint.LockguardAnalyzer)
}

// TestAtomicField: the retired atomicfield analyzer's function-style and
// guardedby-on-atomic cases, held by lockguard.
func TestAtomicField(t *testing.T) {
	linttest.Run(t, "testdata/lockguard/atomics", "example.com/internal/af", lint.LockguardAnalyzer)
}

func TestBoundedAllocDecoder(t *testing.T) {
	linttest.Run(t, "testdata/boundedalloc/dec", "example.com/internal/pcap", lint.BoundedAllocAnalyzer)
}

func TestBoundedAllocNonTarget(t *testing.T) {
	// The same unclamped make in a non-decoder package is out of scope.
	linttest.Run(t, "testdata/boundedalloc/other", "example.com/internal/render", lint.BoundedAllocAnalyzer)
}

// TestTaintDecoder: the retired taint analyzer's fixture, held by
// boundedalloc — every bad flow flagged, every good one silent.
func TestTaintDecoder(t *testing.T) {
	linttest.Run(t, "testdata/boundedalloc/wire", "example.com/internal/pcap", lint.BoundedAllocAnalyzer)
}

// TestTaintNonTarget: the same wire flows draw nothing outside
// boundedalloc's package set.
func TestTaintNonTarget(t *testing.T) {
	l, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]bool{"example.com/internal/render": false, "example.com/internal/tenant": true} {
		pkg, err := l.LoadDir("testdata/boundedalloc/wire", path)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := lint.Check(pkg, []*lint.Analyzer{lint.BoundedAllocAnalyzer})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(diags) > 0; got != want {
			t.Errorf("%s: %d diagnostics, want any = %v", path, len(diags), want)
		}
	}
}

func TestSentinelErr(t *testing.T) {
	linttest.Run(t, "testdata/sentinelerr/sent", "example.com/internal/sent", lint.SentinelErrAnalyzer)
}

func TestGoleak(t *testing.T) {
	linttest.Run(t, "testdata/goleak/res", "example.com/internal/resilience", lint.GoleakAnalyzer)
}

func TestGoleakNonTarget(t *testing.T) {
	linttest.Run(t, "testdata/goleak/other", "example.com/internal/render", lint.GoleakAnalyzer)
}

// TestStaleAllowsUnknownAnalyzer: an allow naming no analyzer of the
// suite — a typo, or an analyzer since retired — can never suppress
// anything, so the audit reports it whichever analyzers ran; an allow for
// a suite analyzer the run left out (-run) is not reported.
func TestStaleAllowsUnknownAnalyzer(t *testing.T) {
	dir := t.TempDir()
	src := `package capture

//bf:allow metricname retired in PR 28
func NewRing(n int) []byte {
	return make([]byte, n) //bf:allow boundedaloc a typo
}

//bf:allow hotpath a suite analyzer this run leaves out
func quiet() {}

var _ = quiet
`
	if err := os.WriteFile(filepath.Join(dir, "capture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, "example.com/internal/capture")
	if err != nil {
		t.Fatal(err)
	}
	ran := []*lint.Analyzer{lint.BoundedAllocAnalyzer}
	_, allows, err := lint.CheckWithAllows(pkg, ran)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range lint.StaleAllows(allows, ran) {
		if !strings.Contains(d.Message, "names no bflint analyzer") {
			t.Errorf("line %d: %s", d.Pos.Line, d.Message)
		}
		got = append(got, fmt.Sprintf("%d:%s", d.Pos.Line, strings.Fields(d.Message)[1]))
	}
	if want := "3:metricname,5:boundedaloc"; strings.Join(got, ",") != want {
		t.Errorf("stale allows = %v, want %s", got, want)
	}
}

// TestAnalyzerRegistry is the suite's completeness contract: every
// analyzer the bflint binary advertises via -list must be exactly the
// set lint.Analyzers() returns, and each must carry non-empty golden
// testdata on both sides — at least one // want annotation proving it
// fires, and at least one clean-side marker (an // ok: package or a
// //bf:allow for that analyzer) proving its silence and suppression
// paths are exercised too. Registering an analyzer without goldens, or
// goldens without registration, fails here before CI ever runs it.
func TestAnalyzerRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("bflint subprocess skipped in -short mode")
	}
	cmd := exec.Command("go", "run", "bitmapfilter/cmd/bflint", "-list")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("bflint -list: %v\n%s", err, out)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if fields := strings.Fields(line); len(fields) > 0 {
			listed = append(listed, fields[0])
		}
	}
	var registered []string
	for _, a := range lint.Analyzers() {
		registered = append(registered, a.Name)
	}
	if strings.Join(listed, ",") != strings.Join(registered, ",") {
		t.Fatalf("bflint -list = %v, lint.Analyzers() = %v", listed, registered)
	}

	for _, name := range registered {
		dir := filepath.Join("testdata", name)
		var wants, okMarks, allows int
		walkErr := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			src := string(data)
			wants += strings.Count(src, "// want ")
			okMarks += strings.Count(src, "// ok:")
			allows += strings.Count(src, "bf:allow "+name)
			return nil
		})
		if walkErr != nil {
			t.Errorf("analyzer %s has no golden testdata directory: %v", name, walkErr)
			continue
		}
		if wants == 0 {
			t.Errorf("analyzer %s: no // want annotations in %s; the firing side is unproven", name, dir)
		}
		if okMarks == 0 && allows == 0 {
			t.Errorf("analyzer %s: no // ok: marker or //bf:allow %s in %s; the clean side is unproven", name, name, dir)
		}
	}
}

// TestRepoIsClean runs the full suite over the whole module — the same
// gate as `go run ./cmd/bflint ./...` — so a new violation anywhere in
// the tree fails `go test` too, not just the lint CI step.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint skipped in -short mode")
	}
	l, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		diags, err := lint.Check(pkg, lint.Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
