package core

type shardsOption int

func (o shardsOption) apply(c *config) { c.shards = int(o) }

// WithShards requests the sharded flavor with the given shard count
// (rounded up to a power of two, exactly as NewSharded does). Only Build
// honors it; New returns ErrConfig when it is present.
func WithShards(n int) Option { return shardsOption(n) }

// Build returns a *Sharded when the options carry WithShards(n), and New's
// *Filter otherwise. All other options configure the underlying filter(s)
// exactly as they do for New and NewSharded.
func Build(opts ...Option) (Snapshottable, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.shards == 0 {
		return New(opts...)
	}
	// The shards re-apply the caller's options, the request stripped so
	// New's check passes.
	return NewSharded(cfg.shards, append(opts[:len(opts):len(opts)], shardsOption(0))...)
}
