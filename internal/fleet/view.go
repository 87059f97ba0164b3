package fleet

import (
	"context"

	"dnstrust/internal/delta"
	"dnstrust/internal/readview"
)

// ShardStatus is one shard's health as observed at a commit.
type ShardStatus struct {
	// Name is the shard's configured name.
	Name string `json:"name"`
	// Generation is the last shard generation merged into the view
	// (-1 when the shard has never been fetched successfully).
	Generation int64 `json:"generation"`
	// Stale reports that the shard's fetch failed at this commit, so
	// its contribution is from an earlier round (or missing entirely).
	Stale bool `json:"stale"`
	// Err is the last fetch error ("" when healthy).
	Err string `json:"err,omitempty"`
	// Fetches and Failures count fetch attempts over the coordinator's
	// lifetime.
	Fetches  int64 `json:"fetches"`
	Failures int64 `json:"failures"`
}

// FleetView is one committed fleet generation: the merged survey of
// every shard's last applied epoch, frozen at the commit point. Its read
// core is the single-monitor View's — immutable, analyses memoized per
// view, collections leaving through defensive copies — and it stays
// valid (and cheap, via copy-on-write store sharing) after newer
// generations commit.
//
//lint:immutable
type FleetView struct {
	readview.Core

	// stale lists the shards (sorted) whose fetch failed at this
	// commit; shards holds every shard's status at the commit.
	stale  []string
	shards []ShardStatus

	// changed lists the names (sorted) whose mapping moved since the
	// previous committed view — the journal feeding blast/delta reads.
	changed []string
}

// Stale reports whether any shard's contribution is stale: at least
// one fetch failed at this commit, so the view is a quorum-approved
// partial merge rather than a full one.
func (v *FleetView) Stale() bool { return len(v.stale) > 0 }

// StaleShards returns the names of the shards serving stale data at
// this commit, sorted.
func (v *FleetView) StaleShards() []string { return append([]string(nil), v.stale...) }

// Shards returns every shard's status at the commit.
func (v *FleetView) Shards() []ShardStatus { return append([]ShardStatus(nil), v.shards...) }

// Changed returns the names whose chain mapping changed since the
// previous committed fleet generation, sorted — the fleet's change
// journal, ready for blast-radius and push-delta consumers. The first
// generation reports every name.
func (v *FleetView) Changed() []string { return append([]string(nil), v.changed...) }

// Diff computes the typed trust delta from older to v; a nil older is
// an error. Both views share the coordinator's union store, so
// retained-window diffs take the journal-backed incremental path.
func (v *FleetView) Diff(ctx context.Context, older *FleetView) (*delta.Delta, error) {
	var oc *readview.Core
	if older != nil {
		oc = &older.Core
	}
	return v.Core.Diff(ctx, oc)
}
