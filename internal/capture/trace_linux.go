package capture

import (
	"os"
	"syscall"
)

// mapFile maps a regular, non-empty file read-only and reports whether it
// did. The file is stat'ed by path before it is opened, so a FIFO is never
// opened twice (os.ReadFile opens it once, after this). MAP_POPULATE
// builds the page tables now — a read-ahead of the whole file into the page
// cache where it is not there yet — so no fault lands in the timed run.
func mapFile(path string) ([]byte, bool) {
	if st, err := os.Stat(path); err != nil || !st.Mode().IsRegular() {
		return nil, false
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close() // the mapping outlives the descriptor
	st, err := f.Stat()
	if err != nil || !st.Mode().IsRegular() || st.Size() <= 0 || st.Size() != int64(int(st.Size())) {
		return nil, false
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return nil, false
	}
	return data, true
}

func unmap(data []byte) error { return syscall.Munmap(data) }
