package tenant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"bitmapfilter/internal/core"
	"bitmapfilter/internal/packet"
)

// fileConfig is the on-disk JSON shape loaded by ParseConfig (the
// `bfwall -tenants` file):
//
//	{
//	  "budgetBytes": 8388608,
//	  "targetPenetration": 0.01,
//	  "minFlows": 64,
//	  "tenants": [
//	    {"id": "cust-a", "prefix": "10.1.0.0/16", "order": 14},
//	    {"id": "cust-b", "prefix": "10.2.0.0/16", "hashes": 4, "rotate": "2s"}
//	  ]
//	}
//
// The budget block is optional (omit budgetBytes to pin every tenant to
// its configured geometry). Per-tenant fields mirror the filter options;
// zero values mean "package default". Every tenant is a bare filter, so
// there is no flavor field: "shards" or "safe" is an unknown field and
// rejected.
type fileConfig struct {
	BudgetBytes       uint64             `json:"budgetBytes"`
	TargetPenetration float64            `json:"targetPenetration"`
	MinFlows          float64            `json:"minFlows"`
	Tenants           []fileTenantConfig `json:"tenants"`
}

type fileTenantConfig struct {
	ID      string `json:"id"`
	Prefix  string `json:"prefix"`
	Order   uint   `json:"order"`
	Vectors int    `json:"vectors"`
	Hashes  int    `json:"hashes"`
	Rotate  string `json:"rotate"`
	Seed    uint64 `json:"seed"`
}

// ParseConfig parses the JSON tenant-fleet description into a SetConfig
// ready for NewSet. Field validation that only NewSet can do (duplicate
// ids, overlapping identical prefixes, option ranges) is deferred to it;
// ParseConfig rejects structural problems — malformed JSON, unknown
// fields, bad prefixes and durations, a missing tenant list, and a
// budget block with an out-of-range target.
func ParseConfig(data []byte) (SetConfig, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var fc fileConfig
	if err := dec.Decode(&fc); err != nil {
		return SetConfig{}, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if dec.More() {
		return SetConfig{}, fmt.Errorf("%w: trailing data after config object", ErrConfig)
	}
	if len(fc.Tenants) == 0 {
		return SetConfig{}, fmt.Errorf("%w: no tenants", ErrConfig)
	}

	out := SetConfig{Tenants: make([]Config, 0, len(fc.Tenants))}
	for i, tc := range fc.Tenants {
		prefix, err := packet.ParsePrefix(tc.Prefix)
		if err != nil {
			return SetConfig{}, fmt.Errorf("%w: tenant %d (%q): %v", ErrConfig, i, tc.ID, err)
		}
		var opts []core.Option
		if tc.Order != 0 {
			opts = append(opts, core.WithOrder(tc.Order))
		}
		if tc.Vectors != 0 {
			opts = append(opts, core.WithVectors(tc.Vectors))
		}
		if tc.Hashes != 0 {
			opts = append(opts, core.WithHashes(tc.Hashes))
		}
		if tc.Rotate != "" {
			dt, err := time.ParseDuration(tc.Rotate)
			if err != nil {
				return SetConfig{}, fmt.Errorf("%w: tenant %d (%q): rotate: %v", ErrConfig, i, tc.ID, err)
			}
			opts = append(opts, core.WithRotateEvery(dt))
		}
		if tc.Seed != 0 {
			opts = append(opts, core.WithSeed(tc.Seed))
		}
		out.Tenants = append(out.Tenants, Config{ID: tc.ID, Prefix: prefix, Options: opts})
	}

	if fc.BudgetBytes != 0 || fc.TargetPenetration != 0 || fc.MinFlows != 0 {
		b := &Budget{
			TotalBytes:        fc.BudgetBytes,
			TargetPenetration: fc.TargetPenetration,
			MinFlows:          fc.MinFlows,
		}
		if b.TargetPenetration == 0 {
			b.TargetPenetration = 0.01
		}
		if err := b.validate(); err != nil {
			return SetConfig{}, err
		}
		out.Budget = b
	}
	return out, nil
}
