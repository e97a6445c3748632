package spec

import (
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"bitmapfilter/internal/capture"
	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/xrand"
)

// Wire is the ops' packets as a capture delivers them: a frame a packet, and
// after every 97th a frame the filter never sees — garbage (a truncated
// decode error), an IPv6 frame (not IPv4), and transit traffic touching no
// client network — in turn.
type Wire struct {
	Frames []capture.Frame
	// Pkts[i] is what frame i decodes to, unless Errs[i] names the class of
	// the error it decodes with instead.
	Pkts []packet.Packet
	Errs []string
}

// NewWire encodes the packets of ops.
func NewWire(ops []Op) (*Wire, error) {
	w := &Wire{}
	add := func(p packet.Packet, data []byte, err string) {
		w.Frames = append(w.Frames, capture.Frame{Time: p.Time, Data: data, OrigLen: len(data)})
		w.Pkts, w.Errs = append(w.Pkts, p), append(w.Errs, err)
	}
	k := 0
	for _, op := range ops {
		for _, p := range op.Pkts {
			data, err := packet.Encode(p)
			if err != nil {
				return nil, err
			}
			add(p, data, "")
			if k++; k%97 != 0 {
				continue
			}
			switch k / 97 % 3 {
			case 0:
				add(p, []byte{1, 2, 3}, "truncated")
			case 1:
				v6 := append([]byte(nil), data...)
				v6[12], v6[13] = 0x86, 0xdd
				add(p, v6, "not_ipv4")
			default:
				p.Tuple.Src, p.Tuple.Dst = packet.AddrFrom4(198, 51, 100, 9), packet.AddrFrom4(203, 0, 113, 9)
				if data, err = packet.Encode(p); err != nil {
					return nil, err
				}
				add(p, data, "")
			}
		}
	}
	return w, nil
}

// Source is a capture source in the shapes a live one takes: it reads
// Frames (or, when set, the source it wraps) in batches that are Ragged, of
// random length, under Jitter, yielding or sleeping at random inside
// ReadBatch so that workers fall out of step, and it reports batch LieAt
// (from 1) one frame longer than the ring — a source bug. Sizes records each
// batch delivered, Rings the buffer it was read into. One goroutine at a
// time reads it, as the pump does under its source lock.
type Source struct {
	capture.Source
	Frames         []capture.Frame
	Ragged, Jitter bool
	LieAt          int
	Sizes          []int
	Rings          []*capture.Frame
	Reads          atomic.Int64
	rng            *xrand.Rand
}

// ReadBatch implements capture.Source.
func (s *Source) ReadBatch(frames []capture.Frame) (n int, err error) {
	if s.rng == nil {
		s.rng = xrand.New(uint64(len(s.Frames)))
	}
	want := len(frames)
	if s.Ragged {
		want = 1 + s.rng.Intn(len(frames))
	}
	if s.Jitter {
		switch s.rng.Intn(16) {
		case 0:
			runtime.Gosched()
		case 1:
			time.Sleep(time.Duration(s.rng.Intn(200)) * time.Microsecond)
		}
	}
	if s.Source != nil {
		n, err = s.Source.ReadBatch(frames[:want])
	} else if n = copy(frames[:want], s.Frames); n == 0 {
		err = io.EOF
	} else {
		s.Frames = s.Frames[n:]
	}
	if n > 0 {
		s.Sizes, s.Rings = append(s.Sizes, n), append(s.Rings, &frames[0])
		if int(s.Reads.Add(1)) == s.LieAt {
			return len(frames) + 1, err
		}
	}
	return n, err
}

// Close implements capture.Source.
func (s *Source) Close() error {
	if s.Source != nil {
		return s.Source.Close()
	}
	return nil
}
