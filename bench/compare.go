package main

import (
	"fmt"
	"io"
	"math"
)

// verdict classifies b against a for one end-to-end metric of one workload.
//
//	unresolved  either side's inter-quartile spread is wider than the bound:
//	            the runs cannot tell a regression from noise
//	worse       b's value is worse than a's by more than the bound
//	better      b's value is better by more than the wider of the two spreads
//	same        anything else: inside the bound, and not clearly a gain
func verdict(def metricDef, a, b measured) string {
	if a.Value == 0 {
		return "unresolved"
	}
	// worsening is positive when b is worse, as a share of a's value.
	worsening := (b.Value - a.Value) / a.Value
	if def.better == "higher" {
		worsening = -worsening
	}
	spread := math.Max(a.spread(), b.spread())
	switch {
	case spread > def.bound:
		return "unresolved"
	case worsening > def.bound:
		return "worse"
	case -worsening > spread:
		return "better"
	default:
		return "same"
	}
}

// compare prints, one workload per block and one metric per row, how result
// file b stands against a. Every ratio is printed with its base. It returns
// the number of rows that are worse.
func compare(w io.Writer, a, b resultFile) int {
	if a.Seed != b.Seed || a.Smoke != b.Smoke {
		fmt.Fprintf(w, "note: seed/smoke differ (%d/%v vs %d/%v): traces are not the same\n", a.Seed, a.Smoke, b.Seed, b.Smoke)
	}
	worse := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%s: only in the first file\n", wa.Name)
			continue
		}
		fmt.Fprintf(w, "%s\n", wa.Name)
		if wa.Trace.SHA256 != wb.Trace.SHA256 {
			fmt.Fprintf(w, "  note: trace sha256 differs\n")
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(w, "  INVALID: an output check failed (first: correct=%v, second: correct=%v); numbers not compared\n", wa.Correct, wb.Correct)
			worse++
			continue
		}
		for _, def := range endToEnd {
			ma, oka := wa.EndToEnd[def.name]
			mb, okb := wb.EndToEnd[def.name]
			if !oka || !okb {
				continue
			}
			v := verdict(def, ma, mb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "  %-18s %-10s %+6.2f%% of base %.6g %s (second %.6g; IQR %.2f%% / %.2f%%; bound %.0f%%, %s is better)\n",
				def.name, v, 100*(mb.Value-ma.Value)/ma.Value, ma.Value, ma.Unit, mb.Value,
				100*ma.spread(), 100*mb.spread(), 100*def.bound, def.better)
		}

		// failed_frame_share: bound 0, absolute.
		sa, sb := share(wa.Failed, wa.Attempted), share(wb.Failed, wb.Attempted)
		v := "same"
		if sb > sa {
			v = "worse"
			worse++
		}
		fmt.Fprintf(w, "  %-18s %-10s %d of %d frames, base %d of %d\n", "failed_frame_share", v, wb.Failed, wb.Attempted, wa.Failed, wa.Attempted)

		// false_positive_share: 20 % relative with an absolute floor; exact
		// for a fixed trace and fixed hash seeds, so any move is a hashing
		// change.
		fa, oka := wa.Layers["core.false_positive_share"]
		fb, okb := wb.Layers["core.false_positive_share"]
		if oka && okb {
			v := "same"
			if fb.Value > math.Max(fa.Value*(1+falsePositiveBound), falsePositiveFloor) {
				v = "worse"
				worse++
			}
			fmt.Fprintf(w, "  %-18s %-10s %.3g, base %.3g (bound %.0f%%, floor %.0g)\n", "false_positive_share", v, fb.Value, fa.Value, 100*falsePositiveBound, falsePositiveFloor)
		}
	}
	return worse
}

func share(failed, attempted uint64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
