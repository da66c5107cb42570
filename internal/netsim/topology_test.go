package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustGenerate(t *testing.T, cfg Config) *Network {
	t.Helper()
	nw, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return nw
}

func smallConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.TransitDomains = 2
	cfg.TransitNodesPerDomain = 3
	cfg.StubDomainsPerTransitNode = 2
	cfg.StubNodesPerDomain = 3
	cfg.Seed = seed
	return cfg
}

func TestGenerateDefault(t *testing.T) {
	nw := mustGenerate(t, DefaultConfig())
	wantTransit := 4 * 8
	wantStub := wantTransit * 3 * 6
	if nw.NumRouters() != wantTransit+wantStub {
		t.Fatalf("routers = %d, want %d", nw.NumRouters(), wantTransit+wantStub)
	}
	if len(nw.transit) != wantTransit {
		t.Fatalf("transit = %d, want %d", len(nw.transit), wantTransit)
	}
	if len(nw.stubRouters) != wantStub {
		t.Fatalf("stub = %d, want %d", len(nw.stubRouters), wantStub)
	}
	if nw.numLinks < nw.NumRouters()-1 {
		t.Fatalf("too few links for connectivity: %d", nw.numLinks)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, smallConfig(42))
	b := mustGenerate(t, smallConfig(42))
	if a.numLinks != b.numLinks {
		t.Fatalf("same seed, different link counts: %d vs %d", a.numLinks, b.numLinks)
	}
	for u := 0; u < a.NumRouters(); u++ {
		for v := 0; v < a.NumRouters(); v++ {
			if a.RouterDistance(RouterID(u), RouterID(v)) != b.RouterDistance(RouterID(u), RouterID(v)) {
				t.Fatalf("distance (%d,%d) differs between same-seed networks", u, v)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		wantOK bool
	}{
		{"default", func(*Config) {}, true},
		{"no transit domains", func(c *Config) { c.TransitDomains = 0 }, false},
		{"no transit nodes", func(c *Config) { c.TransitNodesPerDomain = 0 }, false},
		{"negative stubs", func(c *Config) { c.StubNodesPerDomain = -1 }, false},
		{"mismatched stubs", func(c *Config) { c.StubDomainsPerTransitNode = 0 }, false},
		{"no stubs at all", func(c *Config) {
			c.StubDomainsPerTransitNode = 0
			c.StubNodesPerDomain = 0
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != c.wantOK {
				t.Fatalf("Validate = %v, wantOK=%v", err, c.wantOK)
			}
		})
	}
}

func TestNoStubTopologyUsesTransitAsAttachment(t *testing.T) {
	cfg := smallConfig(7)
	cfg.StubDomainsPerTransitNode = 0
	cfg.StubNodesPerDomain = 0
	nw := mustGenerate(t, cfg)
	if len(nw.stubRouters) != nw.NumRouters() {
		t.Fatalf("stub attachment points = %d, want all %d routers",
			len(nw.stubRouters), nw.NumRouters())
	}
}

func TestDistancesSymmetricAndTriangle(t *testing.T) {
	nw := mustGenerate(t, smallConfig(3))
	n := nw.NumRouters()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		u := RouterID(rng.Intn(n))
		v := RouterID(rng.Intn(n))
		w := RouterID(rng.Intn(n))
		duv := nw.RouterDistance(u, v)
		dvu := nw.RouterDistance(v, u)
		if duv != dvu {
			t.Fatalf("asymmetric distance (%d,%d): %v vs %v", u, v, duv, dvu)
		}
		if nw.RouterDistance(u, w) > duv+nw.RouterDistance(v, w)+1e-6 {
			t.Fatalf("triangle inequality violated at (%d,%d,%d)", u, v, w)
		}
		if u == v && duv != 0 {
			t.Fatalf("self distance nonzero: %v", duv)
		}
	}
}

func TestRouterPathConsistency(t *testing.T) {
	nw := mustGenerate(t, smallConfig(5))
	n := nw.NumRouters()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		u := RouterID(rng.Intn(n))
		v := RouterID(rng.Intn(n))
		path := nw.RouterPath(u, v)
		if path[0] != u || path[len(path)-1] != v {
			t.Fatalf("path endpoints wrong: %v for (%d,%d)", path, u, v)
		}
		// The path's latency must equal the distance table entry.
		var lat float64
		for i := 1; i < len(path); i++ {
			found := false
			for _, e := range nw.adj[path[i-1]] {
				if e.to == path[i] {
					lat += e.lat
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("path uses non-existent link %d-%d", path[i-1], path[i])
			}
		}
		if diff := lat - nw.RouterDistance(u, v); diff > 1e-3 || diff < -1e-3 {
			t.Fatalf("path latency %v != table %v", lat, nw.RouterDistance(u, v))
		}
	}
}

func TestPathLinksCanonical(t *testing.T) {
	nw := mustGenerate(t, smallConfig(5))
	links := nw.PathLinks(0, RouterID(nw.NumRouters()-1))
	if len(links) == 0 {
		t.Fatal("no links on cross-network path")
	}
	for _, l := range links {
		if l.A > l.B {
			t.Fatalf("non-canonical link %v", l)
		}
	}
}

func TestNormLink(t *testing.T) {
	if NormLink(5, 2) != (Link{A: 2, B: 5}) {
		t.Fatal("NormLink did not order")
	}
	if NormLink(2, 5) != NormLink(5, 2) {
		t.Fatal("NormLink not symmetric")
	}
}

func TestGeneratedNetworksConnectedProperty(t *testing.T) {
	// Property: any seeded small topology is connected (Generate errors
	// otherwise) and all distances are finite and non-negative.
	f := func(seed int64) bool {
		nw, err := Generate(smallConfig(seed))
		if err != nil {
			return false
		}
		for u := 0; u < nw.NumRouters(); u++ {
			for v := 0; v < nw.NumRouters(); v++ {
				d := nw.RouterDistance(RouterID(u), RouterID(v))
				if d < 0 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStringSummary(t *testing.T) {
	nw := mustGenerate(t, smallConfig(1))
	if s := nw.String(); s == "" {
		t.Fatal("empty String()")
	}
}
