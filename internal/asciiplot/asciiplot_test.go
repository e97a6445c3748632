package asciiplot

import (
	"strings"
	"testing"
)

func TestScatterPlacesPoints(t *testing.T) {
	// Two points at the extremes of a common 0..1 scale.
	out := Scatter([]float64{0, 1}, []float64{0, 1}, 20, 10)
	if out == "" {
		t.Fatal("empty output")
	}
	rows := strings.Split(out, "\n")
	// Row 1 is the top of the grid (after the header line): the (1,1)
	// point lands in the top-right; (0,0) in the bottom-left.
	top := rows[1]
	bottom := rows[10]
	if top[len(top)-1] != 'o' {
		t.Errorf("top-right corner = %q", top)
	}
	if bottom[1] != 'o' {
		t.Errorf("bottom-left corner = %q", bottom)
	}
	// Identity line is drawn.
	if !strings.Contains(out, ".") {
		t.Error("no identity line")
	}
	if !strings.Contains(out, "x: 0..1") {
		t.Errorf("axis annotation missing:\n%s", out)
	}
}

func TestScatterDegenerate(t *testing.T) {
	if Scatter(nil, nil, 10, 10) != "" {
		t.Error("empty scatter produced output")
	}
	if Scatter([]float64{1}, []float64{1, 2}, 10, 10) != "" {
		t.Error("mismatched scatter produced output")
	}
	// A single point (zero range) must not divide by zero.
	if out := Scatter([]float64{0.5}, []float64{0.5}, 10, 5); out == "" {
		t.Error("single-point scatter empty")
	}
}

func TestLinesRendersSeries(t *testing.T) {
	normal := []float64{1, 1, 1, 1}
	attack := []float64{0, 0, 10, 10}
	out := Lines([]string{"normal", "attack"}, [][]float64{normal, attack}, 4, 8)
	if out == "" {
		t.Fatal("empty output")
	}
	if !strings.Contains(out, "n=normal") || !strings.Contains(out, "a=attack") {
		t.Error("legend missing")
	}
	rows := strings.Split(out, "\n")
	// The attack series reaches the top row in its second half.
	top := rows[1]
	if !strings.Contains(top, "a") {
		t.Errorf("attack peak not at top: %q", top)
	}
	// The normal series sits near the bottom (1/10 of max).
	found := false
	for _, r := range rows[len(rows)-4:] {
		if strings.Contains(r, "n") {
			found = true
		}
	}
	if !found {
		t.Errorf("normal series not near bottom:\n%s", out)
	}
}

func TestLinesDegenerate(t *testing.T) {
	if Lines(nil, nil, 10, 10) != "" {
		t.Error("empty lines produced output")
	}
	if Lines([]string{"a"}, [][]float64{}, 10, 10) != "" {
		t.Error("mismatch produced output")
	}
	if Lines([]string{"a"}, [][]float64{{}}, 10, 10) != "" {
		t.Error("all-empty series produced output")
	}
	// All-zero series must not divide by zero.
	if out := Lines([]string{"z"}, [][]float64{{0, 0}}, 2, 4); out == "" {
		t.Error("zero series empty output")
	}
}
