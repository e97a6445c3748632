package core

// The unified builder: one constructor surface for every filter flavor.
//
// Flavor selectors (WithShards, WithConcurrencySafe) are ordinary Options
// riding in the same slice as the parameter options, so one option bundle
// describes a complete filter and can be stored or serialized alongside
// configuration. Build composes the flavors (Filter, Safe, Sharded); New,
// NewSafe and NewSharded remain as thin constructors of the concrete types.

// buildConfig is the flavor-selection slice of config, set only by the
// builder options below. New rejects configurations that carry flavor
// requests — flavors are composed by Build, not by the single-filter
// constructor.
type buildConfig struct {
	shards int
	safe   bool
}

type shardsOption int

func (o shardsOption) apply(c *config) { c.build.shards = int(o) }

// WithShards requests the sharded flavor with the given shard count
// (rounded up to a power of two, exactly as NewSharded does). Only Build
// honors it; New returns ErrConfig when it is present.
func WithShards(n int) Option { return shardsOption(n) }

type safeOption struct{}

func (safeOption) apply(c *config) { c.build.safe = true }

// WithConcurrencySafe requests a goroutine-safe filter: Build wraps the
// single filter in Safe. It is implied (and ignored) for the sharded
// flavor, whose shards are individually locked already.
func WithConcurrencySafe() Option { return safeOption{} }

// clearFlavorOption strips the flavor requests from a config so the
// per-flavor constructors (which Build delegates to, forwarding the full
// option slice) do not trip New's flavor validation.
type clearFlavorOption struct{}

func (clearFlavorOption) apply(c *config) { c.build = buildConfig{} }

// Build composes the filter flavor an option bundle describes:
//
//	WithShards(n)          -> *Sharded (n rounded up to a power of two)
//	WithConcurrencySafe()  -> *Safe
//	neither                -> *Filter
//
// All other options configure the underlying filter(s) exactly as they
// do for New/NewSharded.
func Build(opts ...Option) (Snapshottable, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	// The forwarded slice keeps the caller's options (the per-flavor
	// constructors re-apply them, e.g. per shard) with the flavor
	// requests stripped so New's validation passes.
	inner := make([]Option, 0, len(opts)+1)
	inner = append(append(inner, opts...), clearFlavorOption{})
	switch {
	case cfg.build.shards != 0:
		return NewSharded(cfg.build.shards, inner...)
	case cfg.build.safe:
		f, err := New(inner...)
		if err != nil {
			return nil, err
		}
		return NewSafe(f), nil
	default:
		return New(inner...)
	}
}
