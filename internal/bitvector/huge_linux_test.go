package bitvector

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// TestOrder25OnHugePages: at the gate the words start on a 2 MiB boundary,
// are exactly the vector (len == cap), are zero, and the kernel was asked
// for huge pages over them (the "hg" VmFlag of their mapping).
func TestOrder25OnHugePages(t *testing.T) {
	v := MustNew(hugeMinOrder)
	n := 1 << (hugeMinOrder - 6)
	if len(v.words) != n || cap(v.words) != n {
		t.Fatalf("len, cap = %d, %d; want %d", len(v.words), cap(v.words), n)
	}
	first := uintptr(unsafe.Pointer(&v.words[0]))
	if first%hugePage != 0 {
		t.Errorf("words start at %#x, not on a 2 MiB boundary", first)
	}
	for i, w := range v.words {
		if w != 0 {
			t.Fatalf("word %d = %#x, want 0", i, w)
		}
	}
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage"); err != nil {
		t.Skip("kernel without transparent huge pages")
	}
	last := uintptr(unsafe.Pointer(&v.words[n-1]))
	for _, addr := range []uintptr{first, last} {
		flags, err := vmFlags(addr)
		if err != nil {
			t.Skip(err)
		}
		if !strings.Contains(" "+flags+" ", " hg ") {
			t.Errorf("mapping of %#x has VmFlags %q, want hg", addr, flags)
		}
	}
}

// vmFlags returns the VmFlags line of the mapping in /proc/self/smaps that
// holds addr.
func vmFlags(addr uintptr) (string, error) {
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		return "", err
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var lo, hi uintptr
		if _, err := fmt.Sscanf(line, "%x-%x ", &lo, &hi); err == nil {
			in = lo <= addr && addr < hi
		} else if flags, ok := strings.CutPrefix(line, "VmFlags:"); ok && in {
			return strings.TrimSpace(flags), nil
		}
	}
	return "", fmt.Errorf("no mapping in /proc/self/smaps holds %#x", addr)
}
