package resolver

import "time"

// SetClock replaces the clock that ages cached delegations.
func (r *Resolver) SetClock(now func() time.Time) { r.deleg.now = now }

// CachedServers returns the live cached delegation of exactly zone, or
// nil when there is none.
func (r *Resolver) CachedServers(zone string) []ServerAddr {
	z, servers, ok := r.deleg.closest(zone, r.deleg.epoch.Load(), r.deleg.now())
	if !ok || z != zone {
		return nil
	}
	return servers
}
