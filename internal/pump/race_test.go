//go:build race

package pump

func init() { raceEnabled = true }
