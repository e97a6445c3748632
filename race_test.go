//go:build race

package bitmapfilter_test

func init() { raceEnabled = true }
