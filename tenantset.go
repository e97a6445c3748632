package bitmapfilter

import (
	"io"

	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/tenant"
)

// TenantSet is the multi-tenant data plane: one BatchFilter routing each
// packet to the per-subnet bitmap filter owning its client-side address
// via longest-prefix match, judging a batch in source order, each packet in
// its tenant's filter (zero steady-state allocations), and
// optionally rebalancing a shared memory budget across tenants from
// their observed flow counts. Every tenant is a bare Filter behind the
// set's one lock, so the set is goroutine-safe. It implements
// Snapshottable, so a whole fleet checkpoints and restores atomically.
type TenantSet = tenant.Set

// TenantConfig describes one tenant: identifier, owned client prefix,
// and the option bundle New accepts (every tenant is a bare Filter).
type TenantConfig = tenant.Config

// TenantSetConfig configures NewTenantSet.
type TenantSetConfig = tenant.SetConfig

// TenantBudget is the shared-memory planner: a global byte pool carved
// into per-tenant bitmap geometries in proportion to observed flow
// counts, applied at rotation boundaries by TenantSet.Rebalance.
type TenantBudget = tenant.Budget

// TenantStat is one tenant's introspection snapshot (identity + Stats).
type TenantStat = tenant.Stat

// ErrTenantConfig is returned for invalid tenant-set configurations.
var ErrTenantConfig = tenant.ErrConfig

// ErrNoTenantBudget is returned by Rebalance on a Set without a budget.
var ErrNoTenantBudget = tenant.ErrNoBudget

// NewTenantSet builds the fleet; see TenantSetConfig.
func NewTenantSet(cfg TenantSetConfig) (*TenantSet, error) { return tenant.NewSet(cfg) }

// ParseTenantConfig parses the JSON fleet description used by
// `bfwall -tenants` into a TenantSetConfig; see internal/tenant for the
// schema and README for an example.
func ParseTenantConfig(data []byte) (TenantSetConfig, error) { return tenant.ParseConfig(data) }

// ReadTenantSnapshot restores a fleet written by TenantSet.WriteSnapshot.
// Each tenant's seed and mark and tuple policies come back from the
// snapshot; extra supplies what it does not hold, the APD policy, keyed by
// tenant id; nil means none.
func ReadTenantSnapshot(r io.Reader, extra func(id string) []Option) (*TenantSet, error) {
	return tenant.ReadSnapshot(r, extra)
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return packet.ParseAddr(s) }

// ParsePrefix parses CIDR notation ("10.1.0.0/16"), rejecting
// non-canonical bases with host bits set.
func ParsePrefix(s string) (Prefix, error) { return packet.ParsePrefix(s) }
