package resolver

import (
	"sync"
	"sync/atomic"
	"time"

	"dnstrust/internal/dnsname"
)

// maxDelegations bounds the delegation cache. Entries are spread over
// the numShards shards and each shard holds at most
// maxDelegations/numShards of them; a store into a full shard evicts
// one arbitrary entry first.
const maxDelegations = 1 << 14

// delegation is one cached zone cut: the usable servers a referral
// named for the zone, valid until expires and only within the cache
// epoch it was learned in. The servers slice is immutable once stored.
type delegation struct {
	servers []ServerAddr
	expires time.Time
	epoch   uint64
}

// delegShard is one shard of the delegation cache; lookups share the
// read lock.
type delegShard struct {
	mu sync.RWMutex
	m  map[string]delegation
}

// delegCache maps zone apexes to the servers that serve them, so a
// resolution can start at the deepest known zone cut above its name
// instead of at the root. Flush invalidates every entry in O(1) by
// advancing the epoch; stale entries are overwritten or evicted later.
type delegCache struct {
	epoch  atomic.Uint64
	now    func() time.Time
	shards [numShards]delegShard
}

func (c *delegCache) flush() { c.epoch.Add(1) }

// closest returns the deepest zone at or above name with a live cached
// delegation: learned in epoch and unexpired at now. The root is never
// cached; ok is false when no ancestor below it is.
//
//lint:hotpath
func (c *delegCache) closest(name string, epoch uint64, now time.Time) (zone string, servers []ServerAddr, ok bool) {
	for z := name; z != ""; z, _ = dnsname.Parent(z) {
		s := &c.shards[fnv1a(z)&(numShards-1)]
		s.mu.RLock()
		d, hit := s.m[z]
		s.mu.RUnlock()
		if hit && d.epoch == epoch && now.Before(d.expires) {
			return z, d.servers, true
		}
	}
	return "", nil, false
}

// store caches servers for zone for ttl seconds under epoch. A zero TTL
// caches nothing.
func (c *delegCache) store(zone string, servers []ServerAddr, ttl uint32, epoch uint64, now time.Time) {
	if ttl == 0 || len(servers) == 0 {
		return
	}
	s := &c.shards[fnv1a(zone)&(numShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]delegation)
	}
	if _, ok := s.m[zone]; !ok && len(s.m) >= maxDelegations/numShards {
		for k := range s.m {
			delete(s.m, k)
			break
		}
	}
	s.m[zone] = delegation{servers: servers, expires: now.Add(time.Duration(ttl) * time.Second), epoch: epoch}
}

// evict forgets zone's delegation.
func (c *delegCache) evict(zone string) {
	s := &c.shards[fnv1a(zone)&(numShards-1)]
	s.mu.Lock()
	delete(s.m, zone)
	s.mu.Unlock()
}
