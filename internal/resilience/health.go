package resilience

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// State is the daemon's lifecycle position, driving readiness.
type State uint8

const (
	// StateStarting: the process is up but not yet serving traffic
	// (restoring a checkpoint, opening the source).
	StateStarting State = iota
	// StateReady: the data plane is flowing; load balancers may send
	// work.
	StateReady
	// StateDraining: shutdown has begun — intake is stopping, the final
	// checkpoint is being taken. The process is still *live* (do not
	// kill it harder), but no longer *ready* (stop routing to it).
	StateDraining
)

// String names the state for logs and metrics.
func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Health combines the watchdog's stall evidence with the daemon's
// lifecycle state into the two orchestrator questions:
//
//   - Live   — is the process making progress at all, or should it be
//     restarted? False only on a stalled probe: a wedged batch loop, a
//     checkpointer that stopped checkpointing.
//   - Ready  — should new traffic be routed here? Requires StateReady
//     and liveness; flips false the moment draining starts so the
//     orchestrator stops routing before intake stops.
type Health struct {
	wd    *Watchdog
	state atomic.Uint32
}

// NewHealth builds a Health view over wd (which may be nil: then only
// the state machine drives the answers).
func NewHealth(wd *Watchdog) *Health {
	return &Health{wd: wd}
}

// Watchdog returns the watchdog backing this health view (nil when none
// was attached) so metrics exporters can render per-probe series.
func (h *Health) Watchdog() *Watchdog { return h.wd }

// SetReady moves the lifecycle to StateReady.
func (h *Health) SetReady() { h.state.Store(uint32(StateReady)) }

// SetDraining moves the lifecycle to StateDraining.
func (h *Health) SetDraining() { h.state.Store(uint32(StateDraining)) }

// State returns the current lifecycle state.
func (h *Health) State() State { return State(h.state.Load()) }

// Live answers the liveness probe. The detail string is empty when
// healthy and names each stalled probe otherwise.
func (h *Health) Live() (bool, string) {
	if h.wd == nil {
		return true, ""
	}
	stalls := h.wd.Check()
	if len(stalls) == 0 {
		return true, ""
	}
	return false, describeStalls(stalls)
}

// Ready answers the readiness probe: StateReady and no stalls.
func (h *Health) Ready() (bool, string) {
	if s := h.State(); s != StateReady {
		return false, s.String()
	}
	return h.Live()
}

// describeStalls renders stalls for probe bodies and logs.
func describeStalls(stalls []Stall) string {
	var b strings.Builder
	for i, st := range stalls {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s stalled for %v", st.Name, st.Age.Round(timeRound))
	}
	return b.String()
}

// timeRound keeps stall ages human-sized in probe bodies.
const timeRound = 1e6 // 1ms in time.Duration units
