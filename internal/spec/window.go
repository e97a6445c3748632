package spec

import (
	"time"

	"bitmapfilter/internal/packet"
)

// APD is a filter's adaptive packet dropping (§5.3), none at the zero Window:
// by U_b, incoming bytes against Capacity bits/s, or by the in/out packet
// ratio r: 0 below Low, 1 from High, linear between. Window is ten epochs.
type APD struct {
	Bandwidth           bool
	Low, High, Capacity float64
	Window              time.Duration
}

// window is the packets observed, by packet.Direction: for each, the epoch
// it counts in (its packet's, ⌊t/width⌋, or its direction's newest if later)
// and its bytes. It counts while under ten epochs older than now's or newest.
type window [packet.Incoming + 1]events

type events struct {
	list          []event // in epoch order, pruned of what can never count again
	newest, bytes int64   // bytes: the list's
}

type event struct{ epoch, bytes int64 }

func (a APD) width() time.Duration { return max(a.Window/10, 1) }

func (e *events) observe(a APD, p packet.Packet) {
	e.newest = max(e.newest, int64(p.Time/a.width()))
	e.list, e.bytes = append(e.list, event{e.newest, int64(p.Length)}), e.bytes+int64(p.Length)
	for ; e.list[0].epoch <= e.newest-10; e.list = e.list[1:] {
		e.bytes -= e.list[0].bytes
	}
}

// at is how many events count at now, and their bytes.
func (e *events) at(a APD, now time.Duration) (n, bytes float64) {
	i, b, cut := 0, e.bytes, int64(now/a.width())-10
	for ; i < len(e.list) && e.list[i].epoch <= cut; i++ {
		b -= e.list[i].bytes
	}
	return float64(len(e.list) - i), float64(b)
}

// dropProbability is the indicator at now as a probability; 0 without APD.
func (a APD) dropProbability(w *window, now time.Duration) float64 {
	in, bytes := w[packet.Incoming].at(a, now)
	out, _ := w[packet.Outgoing].at(a, now)
	switch {
	case a.Bandwidth:
		return min(bytes*8/(a.Capacity*(10*a.width()).Seconds()), 1)
	case a.Window == 0 || in == 0:
		return 0
	}
	return min(max((in/out-a.Low)/(a.High-a.Low), 0), 1)
}
