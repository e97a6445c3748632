package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// binaries are what the benchmark compiles before it measures.
type binaries struct {
	bfwall string // ./cmd/bfwall: everything timed end to end runs in it
	spawn  string // ./bench/spawn: starts bfwall and reports its rusage
}

// buildBinaries compiles both from the module rooted at root into outDir.
// Building ./cmd/bfwall is the benchmark's only contact with the tree
// outside bench/ besides the layer packages it times.
func buildBinaries(root, outDir string) (binaries, error) {
	build := func(pkg string) (string, error) {
		bin := filepath.Join(outDir, filepath.Base(pkg))
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
		}
		return bin, nil
	}
	var b binaries
	var err error
	if b.bfwall, err = build("./cmd/bfwall"); err != nil {
		return b, err
	}
	b.spawn, err = build("./bench/spawn")
	return b, err
}

// totals are the counters both the bfwall report and the in-process
// pipeline produce; a timed run is correct when they agree.
type totals struct {
	Frames     uint64 `json:"frames"`
	Out        uint64 `json:"out"`
	In         uint64 `json:"in"`
	Pass       uint64 `json:"pass"`
	Drop       uint64 `json:"drop"`
	DecodeErrs uint64 `json:"decodeErrors"`
	Unrouted   uint64 `json:"unrouted"`
	Truncated  uint64 `json:"truncated"`
}

// binRun is one bfwall subprocess, exec to exit.
type binRun struct {
	totals
	pps      float64       // frames ÷ pump time, as bfwall printed it
	pump     time.Duration // frames ÷ pps
	wall     time.Duration // exec → exit
	cpu      time.Duration // utime + stime
	maxRSSKB int64
}

// runBfwall runs the binary once, through the spawn helper, and parses its
// -bench report. A report that does not parse is an error, never a zero: a
// renamed flag or report line must break the benchmark loudly.
func runBfwall(bins binaries, args []string) (binRun, error) {
	var r binRun
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bins.spawn, append([]string{bins.bfwall}, args...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("bfwall %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	// spawn appends its rusage line to whatever bfwall printed.
	out := strings.TrimSpace(stdout.String())
	cut := strings.LastIndexByte(out, '\n') + 1
	var u struct {
		WallNs   int64 `json:"wall_ns"`
		UserNs   int64 `json:"user_ns"`
		SysNs    int64 `json:"sys_ns"`
		MaxRSSKB int64 `json:"maxrss_kb"`
	}
	if err := json.Unmarshal([]byte(out[cut:]), &u); err != nil || u.WallNs <= 0 || u.MaxRSSKB <= 0 {
		return r, fmt.Errorf("bfwall %s: no rusage line from spawn (%v) in:\n%s", strings.Join(args, " "), err, out)
	}
	if err := parseBenchReport(out[:cut], &r); err != nil {
		return r, fmt.Errorf("bfwall %s: %v", strings.Join(args, " "), err)
	}
	r.wall = time.Duration(u.WallNs)
	r.cpu = time.Duration(u.UserNs + u.SysNs)
	r.maxRSSKB = u.MaxRSSKB
	return r, nil
}

// parseBenchReport reads the three report lines printBenchReport writes:
//
//	bfwall bench: 10007460 frames in 1.643s wall (6090799 pps)
//	  decode errors: 0, unrouted: 0, truncated: 0
//	  verdicts: out=1740 in=10005720 pass=1640 drop=10004080
func parseBenchReport(out string, r *binRun) error {
	found := 0
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		var wall string
		switch {
		case strings.HasPrefix(line, "bfwall bench:"):
			if _, err := fmt.Sscanf(line, "bfwall bench: %d frames in %s wall (%f pps)", &r.Frames, &wall, &r.pps); err != nil {
				return fmt.Errorf("report line %q: %v", line, err)
			}
			found |= 1
		case strings.HasPrefix(line, "decode errors:"):
			if _, err := fmt.Sscanf(line, "decode errors: %d, unrouted: %d, truncated: %d", &r.DecodeErrs, &r.Unrouted, &r.Truncated); err != nil {
				return fmt.Errorf("report line %q: %v", line, err)
			}
			found |= 2
		case strings.HasPrefix(line, "verdicts:"):
			if _, err := fmt.Sscanf(line, "verdicts: out=%d in=%d pass=%d drop=%d", &r.Out, &r.In, &r.Pass, &r.Drop); err != nil {
				return fmt.Errorf("report line %q: %v", line, err)
			}
			found |= 4
		}
	}
	if found != 7 || r.Frames == 0 || r.pps <= 0 {
		return fmt.Errorf("no usable `bfwall bench:` report in output:\n%s", out)
	}
	r.pump = time.Duration(float64(r.Frames) / r.pps * float64(time.Second))
	return nil
}

// checkTotals compares a timed run's counters with the verified in-process
// run over the same trace and loops, and returns how many frames it counts
// as failed. Hash seeds are fixed today, so every counter must be equal.
//
// The rule for the day seeds become per-boot random (written down now so
// that change need not redefine the benchmark's intent): frames, out, in
// and the error counters stay exact; pass == want.Pass relaxes to
// oracle-lower-bound passes ≤ pass ≤ in, and the hashing guard becomes
// core.false_positive_share staying within 20 % (floor 1e-6) of the
// parent's under -compare.
func checkTotals(got, want totals) (failed uint64, err error) {
	failed = got.DecodeErrs + got.Unrouted + got.Truncated
	if got.Frames < want.Frames {
		failed += want.Frames - got.Frames
	}
	if got != want {
		err = fmt.Errorf("bfwall totals %+v differ from the verified in-process run %+v", got, want)
		if failed == 0 {
			// Every frame arrived and decoded, yet a verdict or direction
			// total disagrees: count the disagreeing packets.
			failed = absDiff(got.Out, want.Out) + absDiff(got.Pass, want.Pass)
		}
	}
	if failed > 0 && err == nil {
		err = fmt.Errorf("%d failed frames (decode errors %d, unrouted %d, truncated %d)", failed, got.DecodeErrs, got.Unrouted, got.Truncated)
	}
	return failed, err
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod: the repository root under `go run ./bench`, bench/.. under
// `go test`.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory: run from the repository")
		}
		dir = parent
	}
}
