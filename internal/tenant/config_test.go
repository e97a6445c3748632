package tenant_test

import (
	"errors"
	"testing"
	"time"

	"bitmapfilter/internal/packet"
	"bitmapfilter/internal/tenant"
)

func TestParseConfig(t *testing.T) {
	data := []byte(`{
		"budgetBytes": 1048576,
		"targetPenetration": 0.02,
		"minFlows": 128,
		"tenants": [
			{"id": "cust-a", "prefix": "10.1.0.0/16", "order": 14, "seed": 42},
			{"id": "cust-b", "prefix": "10.2.0.0/16", "rotate": "2s"},
			{"id": "cust-c", "prefix": "10.2.128.0/17", "vectors": 5, "hashes": 2}
		]
	}`)
	cfg, err := tenant.ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Tenants) != 3 {
		t.Fatalf("tenants = %d", len(cfg.Tenants))
	}
	if cfg.Budget == nil || cfg.Budget.TotalBytes != 1<<20 || cfg.Budget.TargetPenetration != 0.02 || cfg.Budget.MinFlows != 128 {
		t.Fatalf("budget = %+v", cfg.Budget)
	}
	if want := packet.PrefixFrom(packet.AddrFrom4(10, 2, 128, 0), 17); cfg.Tenants[2].Prefix != want {
		t.Errorf("prefix = %v, want %v", cfg.Tenants[2].Prefix, want)
	}

	// The parsed config must build a working set with the declared
	// geometry.
	set, err := tenant.NewSet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := set.TenantStats()
	if stats[0].Stats.Order != 14 {
		t.Errorf("cust-a order = %d", stats[0].Stats.Order)
	}
	if stats[1].Stats.RotateEvery != 2*time.Second {
		t.Errorf("cust-b rotate = %v", stats[1].Stats.RotateEvery)
	}
	if stats[2].Stats.Vectors != 5 || stats[2].Stats.Hashes != 2 {
		t.Errorf("cust-c geometry = %dx m=%d", stats[2].Stats.Vectors, stats[2].Stats.Hashes)
	}
	if set.Lookup(packet.AddrFrom4(10, 2, 200, 1)) != "cust-c" {
		t.Error("overlapping /17 did not win")
	}
}

func TestParseConfigNoBudget(t *testing.T) {
	cfg, err := tenant.ParseConfig([]byte(`{"tenants": [{"id": "a", "prefix": "10.0.0.0/8"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Budget != nil {
		t.Errorf("budget = %+v, want nil", cfg.Budget)
	}
}

func TestParseConfigRejects(t *testing.T) {
	cases := map[string]string{
		"empty":             ``,
		"not json":          `tenants:`,
		"no tenants":        `{}`,
		"empty tenants":     `{"tenants": []}`,
		"unknown field":     `{"tenants": [{"id": "a", "prefix": "10.0.0.0/8", "oder": 14}]}`,
		"shards":            `{"tenants": [{"id": "a", "prefix": "10.0.0.0/8", "shards": 4}]}`,
		"safe":              `{"tenants": [{"id": "a", "prefix": "10.0.0.0/8", "safe": true}]}`,
		"bad prefix":        `{"tenants": [{"id": "a", "prefix": "10.0.0.0"}]}`,
		"host bits":         `{"tenants": [{"id": "a", "prefix": "10.0.0.1/8"}]}`,
		"bad duration":      `{"tenants": [{"id": "a", "prefix": "10.0.0.0/8", "rotate": "fast"}]}`,
		"trailing data":     `{"tenants": [{"id": "a", "prefix": "10.0.0.0/8"}]} extra`,
		"budget no target":  `{"budgetBytes": 10, "targetPenetration": 7, "tenants": [{"id": "a", "prefix": "10.0.0.0/8"}]}`,
		"minflows negative": `{"minFlows": -1, "budgetBytes": 10, "tenants": [{"id": "a", "prefix": "10.0.0.0/8"}]}`,
	}
	for name, data := range cases {
		if _, err := tenant.ParseConfig([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, tenant.ErrConfig) {
			t.Errorf("%s: error %v is not ErrConfig", name, err)
		}
	}
}

// FuzzParseConfig asserts the parser never panics and that any config it
// accepts either builds a working Set or is rejected by NewSet with a
// clean error — no partial construction, no panic.
func FuzzParseConfig(f *testing.F) {
	f.Add([]byte(`{"tenants": [{"id": "a", "prefix": "10.0.0.0/8"}]}`))
	f.Add([]byte(`{"budgetBytes": 4096, "targetPenetration": 0.5, "tenants": [{"id": "x", "prefix": "0.0.0.0/0", "order": 10}]}`))
	f.Add([]byte(`{"tenants": [{"id": "a", "prefix": "10.0.0.0/8", "rotate": "3s"}]}`))
	f.Add([]byte(`{"tenants":[{"id":"a","prefix":"255.255.255.255/32","vectors":2,"hashes":1,"seed":9}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := tenant.ParseConfig(data)
		if err != nil {
			return
		}
		set, err := tenant.NewSet(cfg)
		if err != nil {
			return
		}
		// A constructed set must actually dispatch.
		set.Process(packet.Packet{
			Time:  time.Millisecond,
			Tuple: packet.Tuple{Src: 1, SrcPort: 2, Dst: 3, DstPort: 4, Proto: packet.TCP},
			Dir:   packet.Outgoing, Length: 40,
		})
	})
}
