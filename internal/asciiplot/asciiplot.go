// Package asciiplot renders the small terminal charts the cmd/ tools use
// to display reproduced figures: scatter plots (Figure 4) and multi-series
// line charts (Figure 5-a).
// Output is plain ASCII so it survives logs and CI transcripts.
package asciiplot

import (
	"fmt"
	"math"
	"strings"
)

// Scatter renders (x, y) points on a width×height grid with axis ranges
// annotated, plus an identity line when the ranges overlap (the Figure 4
// "gray-dashed line has a slope of 1.0"). Returns "" for empty input.
func Scatter(xs, ys []float64, width, height int) string {
	if len(xs) == 0 || len(xs) != len(ys) {
		return ""
	}
	if width <= 0 {
		width = 60
	}
	if height <= 0 {
		height = 20
	}
	minX, maxX := minMax(xs)
	minY, maxY := minMax(ys)
	// Common scale makes the identity line meaningful.
	lo := math.Min(minX, minY)
	hi := math.Max(maxX, maxY)
	if hi == lo {
		hi = lo + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	place := func(x, y float64, ch byte) {
		c := int((x - lo) / (hi - lo) * float64(width-1))
		r := height - 1 - int((y-lo)/(hi-lo)*float64(height-1))
		if c >= 0 && c < width && r >= 0 && r < height {
			grid[r][c] = ch
		}
	}
	// Identity line first so points overwrite it.
	steps := width
	for i := 0; i <= steps; i++ {
		v := lo + (hi-lo)*float64(i)/float64(steps)
		place(v, v, '.')
	}
	for i := range xs {
		place(xs[i], ys[i], 'o')
	}

	var b strings.Builder
	fmt.Fprintf(&b, "y: %.4g..%.4g ('o' points, '.' identity)\n", lo, hi)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "x: %.4g..%.4g\n", lo, hi)
	return b.String()
}

// Lines renders multiple aligned series as a character chart; each series
// gets the marker of its name's first byte. Series may differ in scale —
// everything is normalized to the global maximum. Returns "" for empty
// input.
func Lines(names []string, series [][]float64, width, height int) string {
	if len(series) == 0 || len(names) != len(series) {
		return ""
	}
	n := 0
	maxVal := 0.0
	for _, s := range series {
		if len(s) > n {
			n = len(s)
		}
		for _, v := range s {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	if n == 0 {
		return ""
	}
	if width <= 0 || width > n {
		width = n
	}
	if height <= 0 {
		height = 16
	}
	if maxVal == 0 {
		maxVal = 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		marker := byte('?')
		if len(names[si]) > 0 {
			marker = names[si][0]
		}
		for c := 0; c < width; c++ {
			idx := c * len(s) / width
			if idx >= len(s) {
				continue
			}
			r := height - 1 - int(s[idx]/maxVal*float64(height-1))
			if r >= 0 && r < height {
				grid[r][c] = marker
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "max=%.4g series:", maxVal)
	for _, name := range names {
		fmt.Fprintf(&b, " %c=%s", name[0], name)
	}
	b.WriteByte('\n')
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	return b.String()
}

func minMax(vals []float64) (lo, hi float64) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
