package tenant

import (
	"errors"
	"fmt"
	"math"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/hashfam"
	"bitmapfilter/internal/model"
)

// ErrNoBudget is returned by Rebalance when the Set carries no Budget.
var ErrNoBudget = errors.New("tenant: set has no budget attached")

// Budget is the shared-memory planner: one global byte pool carved into
// per-tenant bitmap geometries in proportion to each tenant's observed
// flow count. An idle tenant's slice shrinks toward the MinFlows floor
// and a hot tenant's grows to absorb the released bytes, so a fixed
// appliance budget tracks a shifting traffic mix without operator
// retuning — the fleet-scale version of the paper's §3.4 parameter
// procedure, re-run continuously from live estimates instead of once
// from a traffic study.
type Budget struct {
	// TotalBytes is the global pool shared by all tenants' bitmaps.
	TotalBytes uint64
	// TargetPenetration is the per-tenant penetration target handed to
	// model.PlanFor (Equation 1). When a tenant's share cannot meet it,
	// Rebalance degrades that tenant gracefully instead of failing: the
	// target is relaxed and, at worst, the largest geometry fitting the
	// share is used.
	TargetPenetration float64
	// MinFlows floors the flow count used for planning and weighting, so
	// a completely idle tenant keeps a minimal working filter and a
	// nonzero claim on the pool. Zero selects 64.
	MinFlows float64
}

func (b *Budget) validate() error {
	if b.TotalBytes == 0 {
		return fmt.Errorf("%w: budget TotalBytes must be > 0", ErrConfig)
	}
	if b.TargetPenetration <= 0 || b.TargetPenetration >= 1 {
		return fmt.Errorf("%w: budget TargetPenetration %v outside (0, 1)", ErrConfig, b.TargetPenetration)
	}
	if b.MinFlows < 0 {
		return fmt.Errorf("%w: budget MinFlows %v negative", ErrConfig, b.MinFlows)
	}
	return nil
}

func (b *Budget) minFlows() float64 {
	if b.MinFlows > 0 {
		return b.MinFlows
	}
	return 64
}

// estimateFlows inverts Equation 1 to the flow count marking the current
// vector: U = 1 − e^(−mc/2^n) gives c ≈ −(2^n/m)·ln(1−U).
func estimateFlows(stats core.Stats) float64 {
	u := stats.Utilization
	if u <= 0 || stats.Hashes <= 0 {
		return 0
	}
	if u > 0.999999 {
		u = 0.999999
	}
	return -(math.Exp2(float64(stats.Order)) / float64(stats.Hashes)) * math.Log(1-u)
}

// Rebalance advances every tenant to now (firing any due rotations) and
// then re-plans the fleet against the shared budget:
//
//  1. each tenant's active flow count c is estimated from its current
//     vector's fill (estimateFlows) and floored at MinFlows;
//  2. the pool is carved proportionally — tenant i's cap is
//     TotalBytes·cᵢ/Σc — so bytes flow from idle tenants to hot ones;
//  3. each tenant whose filter has rotated since its last plan is
//     re-planned with model.PlanFor under its cap, relaxing the
//     penetration target on ErrInfeasible and falling back to the
//     largest geometry fitting the cap, so a tenant is squeezed rather
//     than evicted;
//  4. tenants whose planned geometry differs from the current one get a
//     replacement filter built from their original option bundle plus
//     the new {order, hashes}, advanced to now and swapped in.
//
// Swaps happen only for tenants that have crossed a rotation boundary
// since their last plan (step 3's gate), keeping resizes aligned with
// the filter's own epochs and bounding re-plan churn to once per
// rotation. A swapped tenant starts with an empty bitmap — its marks
// are re-learned from outgoing traffic within one T_e, exactly the
// cold-start the paper's rotation scheme already tolerates — while its
// cumulative counters are preserved in the group's baseline
// (core.Group.Resize).
//
// Rebalance holds the planner's lock, so two never interleave; the group's
// lock is taken for the stats and for each swap, so dispatch waits for at
// most one of them. It returns how many tenants were resized.
func (s *Set) Rebalance(now time.Duration) (resized int, err error) {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if s.budget == nil {
		return 0, ErrNoBudget
	}
	s.AdvanceTo(now)
	stats := s.MemberStats()
	minF := s.budget.minFlows()
	flows := make([]float64, len(stats))
	var totalWeight float64
	for i := range stats {
		flows[i] = estimateFlows(stats[i])
		totalWeight += math.Max(flows[i], minF)
	}

	for i, st := range s.tenants {
		if stats[i].Rotations == s.planned[i] {
			continue // no rotation boundary crossed since the last plan
		}
		capBytes := uint64(float64(s.budget.TotalBytes) * math.Max(flows[i], minF) / totalWeight)
		plan, perr := planTenant(s.budget.TargetPenetration, math.Max(flows[i], minF), stats[i], capBytes)
		if perr != nil {
			return resized, fmt.Errorf("tenant %q: %w", st.id, perr)
		}
		if plan.Order == stats[i].Order && plan.Hashes == stats[i].Hashes {
			s.planned[i] = stats[i].Rotations
			continue
		}
		// The group replays the tenant's bundle under the running filter's
		// k, Δt, seed and policies, so timing and every key's pair survive
		// even a bundle that left them defaulted (a snapshot-restored
		// tenant's).
		rotations, berr := s.Resize(i, now, plan.Order, plan.Hashes, st.opts...)
		if berr != nil {
			return resized, fmt.Errorf("tenant %q: rebuild: %w", st.id, berr)
		}
		s.planned[i] = rotations
		resized++
	}
	return resized, nil
}

// planTenant picks a {order, hashes} geometry for one tenant under its
// byte cap. The penetration target, the budget's at first, is relaxed
// geometrically on ErrInfeasible; past 0.5 the tenant falls to the largest
// geometry that fits — the budget squeezes tenants, it never evicts them.
// ErrArgs aborts: it signals a bug, not pressure.
//
// The hash count is clamped to hashfam.MaxFunctions: a nearly idle
// tenant's optimum m* = 2^n·ln 2/c exceeds it once c falls below ≈11 at
// order 10, and a filter with more functions cannot be built.
func planTenant(target, c float64, cur core.Stats, capBytes uint64) (model.Plan, error) {
	for {
		plan, err := model.PlanFor(model.PlanInput{
			ActiveConnections: c,
			TargetPenetration: target,
			ExpiryTimer:       cur.ExpiryTimer,
			RotateEvery:       cur.RotateEvery,
			MaxMemoryBytes:    capBytes,
		})
		switch {
		case err == nil:
		case !errors.Is(err, model.ErrInfeasible):
			return model.Plan{}, err
		case target >= 0.5:
			plan = floorPlan(c, cur, capBytes)
		default:
			target = math.Min(target*4, 0.5)
			continue
		}
		plan.Hashes = min(plan.Hashes, hashfam.MaxFunctions)
		return plan, nil
	}
}

// floorPlan is the last resort under extreme pressure: the largest order
// in the planner's range whose bitmap fits capBytes (or the minimum
// order if nothing fits), with the Equation 4 optimal hash count for it.
func floorPlan(c float64, cur core.Stats, capBytes uint64) model.Plan {
	order := uint(10)
	for o := uint(10); o <= 32; o++ {
		if model.MemoryBytes(o, cur.Vectors) > capBytes {
			break
		}
		order = o
	}
	hashes, err := model.OptimalHashesInt(math.Max(c, 1), order)
	if err != nil || hashes < 1 {
		hashes = 3
	}
	return model.Plan{
		Order:       order,
		Vectors:     cur.Vectors,
		Hashes:      hashes,
		RotateEvery: cur.RotateEvery,
		ExpiryTimer: cur.ExpiryTimer,
		MemoryBytes: model.MemoryBytes(order, cur.Vectors),
	}
}
