package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
)

// Expo writes one scrape in the Prometheus text exposition format. It is the
// only code that spells "# HELP" and "# TYPE": a series' kind is the method
// that wrote it, and a family's header is written by the one call that opens
// it, so its samples follow it. The zero value is an empty scrape.
type Expo struct{ b bytes.Buffer }

// Counter opens a counter family of one unlabelled sample.
func (e *Expo) Counter(name, help string) Sample { return Sample{e.open(name, help, "counter", "")} }

// Gauge opens a gauge family of one unlabelled sample.
func (e *Expo) Gauge(name, help string) Sample { return Sample{e.open(name, help, "gauge", "")} }

// Counters opens a counter family whose samples differ in one label.
func (e *Expo) Counters(name, help, label string) Family { return e.open(name, help, "counter", label) }

// Gauges opens a gauge family whose samples differ in one label.
func (e *Expo) Gauges(name, help, label string) Family { return e.open(name, help, "gauge", label) }

func (e *Expo) open(name, help, kind, label string) Family {
	fmt.Fprintf(&e.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	return Family{e, name, label}
}

// Reply sends the scrape as the answer to GET /metrics.
func (e *Expo) Reply(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(e.b.Bytes()) // too late for a status change; the connection likely broke
}

// Family is an open family; each call writes the sample whose label has the
// given value. What is written is the number's Go form, so a series keeps
// its shape on the wire: Int for counts, and for gauges that are whole
// (bytes, depths: 1048576, where Float writes 1.048576e+06), Float for
// ratios and seconds, Bool for 1 or 0.
type Family struct {
	e           *Expo
	name, label string
}

func (f Family) Int(value string, v uint64)    { f.sample(value, v) }
func (f Family) Float(value string, v float64) { f.sample(value, v) }
func (f Family) Bool(value string, v bool) {
	if v {
		f.sample(value, 1)
	} else {
		f.sample(value, 0)
	}
}

func (f Family) sample(value string, v any) {
	if f.label == "" {
		fmt.Fprintf(&f.e.b, "%s %v\n", f.name, v)
	} else {
		fmt.Fprintf(&f.e.b, "%s{%s=%q} %v\n", f.name, f.label, value, v)
	}
}

// Sample is a family of one unlabelled sample, written by one of the three.
type Sample struct{ f Family }

func (s Sample) Int(v uint64)    { s.f.Int("", v) }
func (s Sample) Float(v float64) { s.f.Float("", v) }
func (s Sample) Bool(v bool)     { s.f.Bool("", v) }
