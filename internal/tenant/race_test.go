//go:build race

package tenant_test

func init() { raceEnabled = true }
