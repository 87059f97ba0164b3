package resolver

import (
	"fmt"
	"net/netip"
	"testing"
	"time"
)

func testServers(host string) []ServerAddr {
	return []ServerAddr{{Host: host, Addr: netip.MustParseAddr("192.0.2.1")}}
}

// TestDelegationClosest checks the cache's lookup rules: the deepest
// live ancestor wins, and an entry is dead once expired or once the
// cache epoch has moved past the one it was stored under.
func TestDelegationClosest(t *testing.T) {
	var c delegCache
	t0 := time.Unix(1_000_000, 0)
	c.store("com", testServers("a.gtld"), 3600, 0, t0)
	c.store("example.com", testServers("ns1.example.com"), 60, 0, t0)

	if z, s, ok := c.closest("www.example.com", 0, t0); !ok || z != "example.com" || s[0].Host != "ns1.example.com" {
		t.Fatalf("closest = %q %v %v, want example.com", z, s, ok)
	}
	if z, _, ok := c.closest("www.example.com", 0, t0.Add(61*time.Second)); !ok || z != "com" {
		t.Fatalf("after example.com expired: closest = %q %v, want com", z, ok)
	}
	if _, _, ok := c.closest("www.example.org", 0, t0); ok {
		t.Fatal("an uncached branch must start at the root")
	}
	c.flush()
	if _, _, ok := c.closest("www.example.com", c.epoch.Load(), t0); ok {
		t.Fatal("entries stored before a flush must not be used after it")
	}
	c.store("example.com", testServers("ns1.example.com"), 0, c.epoch.Load(), t0)
	if _, _, ok := c.closest("www.example.com", c.epoch.Load(), t0); ok {
		t.Fatal("a zero-TTL delegation must not be cached")
	}
}

// TestDelegationCacheBounded stores far more zones than the cache
// holds: no shard may outgrow its share of maxDelegations.
func TestDelegationCacheBounded(t *testing.T) {
	var c delegCache
	t0 := time.Unix(1_000_000, 0)
	for i := 0; i < 4*maxDelegations; i++ {
		c.store(fmt.Sprintf("zone%d.test", i), testServers("ns"), 3600, 0, t0)
	}
	total := 0
	for i := range c.shards {
		n := len(c.shards[i].m)
		if n > maxDelegations/numShards {
			t.Errorf("shard %d holds %d entries, cap %d", i, n, maxDelegations/numShards)
		}
		total += n
	}
	if total > maxDelegations {
		t.Errorf("cache holds %d delegations, bound %d", total, maxDelegations)
	}
	if _, _, ok := c.closest(fmt.Sprintf("www.zone%d.test", 4*maxDelegations-1), 0, t0); !ok {
		t.Error("the newest delegation must survive eviction")
	}
}

// TestDelegationHitAllocGate is the runtime complement of the
// //lint:hotpath annotation on closest: a cache hit, including the
// walk up through uncached ancestors, allocates nothing.
//
// alloc-gate: dnstrust/internal/resolver.(*delegCache).closest
func TestDelegationHitAllocGate(t *testing.T) {
	var c delegCache
	t0 := time.Unix(1_000_000, 0)
	c.store("example.com", testServers("ns1.example.com"), 3600, 0, t0)
	got := testing.AllocsPerRun(1000, func() {
		if _, _, ok := c.closest("a.b.www.example.com", 0, t0); !ok {
			t.Fatal("miss")
		}
	})
	if got != 0 {
		t.Errorf("delegation cache hit allocates %.1f objects, want 0", got)
	}
}
