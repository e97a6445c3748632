// Command spawn runs the program named by its arguments, passes its output
// through, and then prints one JSON line with what the kernel accounted to
// it: wall time exec → exit, user and system CPU time, peak resident set.
//
// The benchmark starts bfwall through this helper rather than directly
// because Linux charges a child's ru_maxrss with its parent's resident set at
// the moment of exec: started from the harness, which holds traces and
// reference filters, bfwall's peak would read as the harness's. Started from
// a process of a few MiB it reads as its own.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// usage is the line spawn appends to the child's standard output.
type usage struct {
	WallNs   int64 `json:"wall_ns"`
	UserNs   int64 `json:"user_ns"`
	SysNs    int64 `json:"sys_ns"`
	MaxRSSKB int64 `json:"maxrss_kb"`
}

//bf:allow wallclock exec → exit wall time of the child is the measurement
func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: spawn program [args...]")
		os.Exit(2)
	}
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spawn:", err)
		os.Exit(1)
	}
	ps := cmd.ProcessState
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		fmt.Fprintln(os.Stderr, "spawn: no rusage on this platform")
		os.Exit(1)
	}
	line, _ := json.Marshal(usage{
		WallNs:   wall.Nanoseconds(),
		UserNs:   ps.UserTime().Nanoseconds(),
		SysNs:    ps.SystemTime().Nanoseconds(),
		MaxRSSKB: int64(ru.Maxrss),
	})
	fmt.Printf("%s\n", line)
}
