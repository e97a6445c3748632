package lint

import (
	"go/ast"
	"strings"
)

// WallclockAnalyzer forbids reading the wall clock in deterministic
// packages.
//
// Everything under internal/core is driven by virtual time carried on
// packets, and the experiments, generators and models must produce
// byte-identical output for a fixed seed — that determinism is what makes
// the paper's tables reproducible and what lets checkpoint restore
// back-date the filter clock after downtime. A single stray time.Now
// silently breaks all of it.
//
// Wall time is confined to an explicit allowlist of adapter packages
// (checkpoint, httpapi, capture, resilience, pump), binaries (cmd/*) and
// runnable examples (examples/*); everything else must take time as an
// input (packet timestamps, an injected clock, a caller-supplied seed).
// A deliberate seam in a deterministic package carries
// //bf:allow wallclock with a reason.
var WallclockAnalyzer = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid time.Now/Since/NewTimer/NewTicker/After/Tick in deterministic packages",
	Run:  runWallclock,
}

// wallclockAllowedSegments are path segments that mark a package as
// wall-clock-facing: any package under cmd/ or examples/.
var wallclockAllowedSegments = map[string]bool{
	"cmd":      true,
	"examples": true,
}

// wallclockAllowedLeaves are package-name leaves allowed to touch the
// wall clock.
var wallclockAllowedLeaves = map[string]bool{
	"checkpoint": true,
	"httpapi":    true,
	// capture adapts real NICs (AF_PACKET) to the virtual-time packet
	// plane: stamping a received frame with an offset from the capture
	// epoch is inherently a wall-clock read.
	"capture": true,
	// resilience supervises the wall-clock-facing capture plane: backoff
	// sleeps are real time, and the watchdog's default clock is the
	// process's monotonic elapsed time (tests inject a fake).
	"resilience": true,
	// pump is the daemon's data plane, moved out of cmd/bfwall: the latency
	// it reports is a batch's wall time from its read to its last verdict.
	"pump": true,
}

// wallclockBanned are the time-package functions whose results depend on
// when the process runs.
var wallclockBanned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
}

// wallclockExempt reports whether the package path is on the allowlist.
func wallclockExempt(pkgPath string) bool {
	segs := strings.Split(pkgPath, "/")
	for _, s := range segs {
		if wallclockAllowedSegments[s] {
			return true
		}
	}
	return wallclockAllowedLeaves[segs[len(segs)-1]]
}

func runWallclock(pass *Pass) error {
	if wallclockExempt(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, name, ok := pkgFunc(pass.TypesInfo, call)
			if !ok || pkgPath != "time" || !wallclockBanned[name] {
				return true
			}
			pass.Reportf(call.Pos(),
				"time.%s in deterministic package %q: take time as an input (packet timestamps, an injected Clock, a seed) or move this to an allowlisted package (checkpoint, httpapi, capture, resilience, pump, cmd/*, examples/*)",
				name, pass.Pkg.Path())
			return true
		})
	}
	return nil
}
