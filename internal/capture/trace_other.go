//go:build !linux

package capture

// mapFile maps nothing off Linux: OpenTrace reads every file.
func mapFile(string) ([]byte, bool) { return nil, false }

func unmap([]byte) error { return nil }
