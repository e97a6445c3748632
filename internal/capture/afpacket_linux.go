//go:build linux && afpacket

package capture

import (
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"bitmapfilter/internal/pcap"
)

// AFPacket reads raw Ethernet frames from a Linux AF_PACKET socket. It is
// the live-NIC backend of the packet plane and is compiled only with the
// "afpacket" build tag: the raw socket needs CAP_NET_RAW, which hermetic
// test environments do not have.
//
// Timestamps are offsets of the receive moment from the socket's open
// time, so the pump downstream sees the same monotonic virtual clock a
// replayed trace provides.
type AFPacket struct {
	fd      int
	epoch   time.Time
	snapLen int
	// recv is where a frame lands when its slot has no room for snapLen
	// bytes (ReadBatch); calls to ReadBatch are one at a time.
	recv   []byte
	closed atomic.Bool
}

// ethPAll is ETH_P_ALL: receive every protocol, both directions.
const ethPAll = 0x0003

// htons converts to the big-endian representation AF_PACKET's protocol
// field expects.
func htons(v uint16) uint16 { return v<<8 | v>>8 }

// NewAFPacket opens a raw packet socket bound to the named interface
// (all interfaces when iface is empty). snapLen caps the bytes copied
// per frame; longer frames are truncated with OrigLen preserved. As in
// NewRing, it is capped at pcap.MaxRecordLen.
func NewAFPacket(iface string, snapLen int) (*AFPacket, error) {
	switch {
	case snapLen <= 0:
		snapLen = DefaultSnapLen
	case snapLen > pcap.MaxRecordLen:
		snapLen = pcap.MaxRecordLen
	}
	fd, err := syscall.Socket(syscall.AF_PACKET, syscall.SOCK_RAW, int(htons(ethPAll)))
	if err != nil {
		return nil, fmt.Errorf("capture: afpacket socket: %w", err)
	}
	if iface != "" {
		ifi, err := net.InterfaceByName(iface)
		if err != nil {
			syscall.Close(fd)
			return nil, fmt.Errorf("capture: %w", err)
		}
		sll := &syscall.SockaddrLinklayer{Protocol: htons(ethPAll), Ifindex: ifi.Index}
		if err := syscall.Bind(fd, sll); err != nil {
			syscall.Close(fd)
			return nil, fmt.Errorf("capture: bind %s: %w", iface, err)
		}
	}
	return &AFPacket{fd: fd, epoch: time.Now(), snapLen: snapLen, recv: make([]byte, snapLen)}, nil
}

// ReadBatch implements Source: it blocks for the first frame, then
// drains whatever else the socket already holds without blocking, so a
// quiet link yields single-frame batches while a saturated one fills the
// ring.
//
// AFPacket is a filling source (see Source): a frame ends up in the slot's
// own buffer. A slot with room for snapLen bytes (NewRing's) receives it
// directly; any other (a bare ring's) gets it appended from the socket's
// one receive buffer, so it grows to the frames it carries and no further —
// W × 4 rings of 512 slots at snapLen each would be 512 MiB at W = 4. It
// must be given a ring no aliasing source has delivered into.
func (a *AFPacket) ReadBatch(frames []Frame) (int, error) {
	n := 0
	for n < len(frames) {
		direct := cap(frames[n].Data) >= a.snapLen
		buf := a.recv
		if direct {
			buf = frames[n].Data[:a.snapLen]
		}
		flags := syscall.MSG_TRUNC
		if n > 0 {
			flags |= syscall.MSG_DONTWAIT
		}
		m, _, err := syscall.Recvfrom(a.fd, buf, flags)
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			if n > 0 && (err == syscall.EAGAIN || err == syscall.EWOULDBLOCK) {
				return n, nil
			}
			return n, fmt.Errorf("capture: recvfrom: %w", err)
		}
		// With MSG_TRUNC the return value is the frame's true wire
		// length even when it exceeded the buffer.
		frames[n].Time = time.Since(a.epoch)
		frames[n].OrigLen = m
		if m > len(buf) {
			m = len(buf)
		}
		if direct {
			frames[n].Data = buf[:m]
		} else {
			frames[n].Data = append(frames[n].Data[:0], buf[:m]...)
		}
		n++
	}
	return n, nil
}

// Close implements Source. It is idempotent: the daemon closes the
// source both from its signal handler and on the way out, and a second
// syscall.Close on a since-reused fd number would hit an unrelated file.
func (a *AFPacket) Close() error {
	if !a.closed.CompareAndSwap(false, true) {
		return nil
	}
	return syscall.Close(a.fd)
}
