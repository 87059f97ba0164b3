// Package core implements the paper's primary contribution: delegation
// graphs and transitive trust analysis. From a crawl's streamed walk
// results it builds the zone-level dependency graph, computes each name's
// trusted computing base (TCB) — the transitive closure of every
// nameserver that could participate in resolving the name — and
// materializes per-name server-level delegation digraphs for bottleneck
// (min-cut) analysis and Figure-1-style visualization.
//
// Closures are computed once per *zone*, not per name: the zone dependency
// digraph is condensed with Tarjan's SCC algorithm (cross-domain NS cycles
// are real in DNS) and server sets are unioned bottom-up over the
// condensation DAG. Delegation chains are interned too: every distinct
// chain appears once as a compact zone-id list, names reference chains by
// id, and the TCB of each chain is unioned exactly once — a survey of half
// a million names touches each zone closure and each chain once.
//
// Graphs produced by one Builder share a copy-on-write epoch store:
// holding many generations of a monitored survey live costs array
// headers per generation, not full table clones, and every per-chain
// result carries the epoch at which it last changed — the stamp the
// timeline diff uses to skip unchanged chains in O(1).
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"dnstrust/internal/dnsname"
	"dnstrust/internal/resolver"
)

// Graph is the zone-level dependency structure extracted from a crawl at
// one committed epoch. Build one incrementally with a Builder (or from a
// snapshot with Build); it is immutable (and safe for concurrent use)
// afterwards — later epochs of the same builder share its storage
// copy-on-write instead of mutating it. Accessors deliberately share
// the append-only interned tables instead of copying (shared-returns).
//
//lint:immutable shared-returns
type Graph struct {
	// st is the shared epoch store; epoch selects which writes are
	// visible to this graph.
	st    *store
	epoch int64

	// Pinned append-only array headers: lock-free reads, content below
	// the pinned length never changes.
	hosts  []string
	zones  []string
	chains [][]int32
	zoneNS [][]int32

	numNames int

	// closure[z] is the sorted set of host ids transitively reachable
	// from zone z (z's NS hosts, their chains' NS hosts, and so on).
	closure [][]int32
	// zoneAdj[z] lists the zones z depends on (the chains of its NS
	// hosts), deduplicated.
	zoneAdj [][]int32
	// chainTCB[c] is the sorted host-id union of the closures of every
	// zone on chain c — the TCB shared by every name on that chain.
	chainTCB [][]int32
	// chainStamp[c] is the epoch at which chain c's dependency structure
	// (its TCB, or the address chain of any TCB member) last changed.
	// Inner slices of all three tables alias the previous epoch's when
	// unchanged, so retained generations share almost everything.
	chainStamp []int64

	namesOnce sync.Once
	names     []string
}

// Build constructs the dependency graph from a crawl snapshot. It is the
// batch-mode compatibility path over the incremental Builder: the
// snapshot's zones, host chains, and name chains are replayed as events
// and finished in one pass.
func Build(snap *resolver.Snapshot) *Graph {
	b := NewBuilder(len(snap.NameChain))

	// Zones are replayed in sorted apex order so batch-built graphs have
	// deterministic intern ids (streamed graphs intern in arrival order).
	apexes := make([]string, 0, len(snap.Zones))
	for apex := range snap.Zones {
		if apex == "" {
			continue
		}
		apexes = append(apexes, apex)
	}
	sort.Strings(apexes)
	for _, apex := range apexes {
		b.ObserveZone(apex, snap.Zones[apex].NSHosts)
	}
	for host, chain := range snap.HostChain {
		b.ObserveChain(host, chain)
	}
	for name, chain := range snap.NameChain {
		b.Complete(name, chain)
	}
	return b.Finish()
}

// Epoch reports the builder epoch this graph was finalized at (1 for the
// first FinishEpoch or a one-shot Finish, increasing per epoch).
func (g *Graph) Epoch() int64 { return g.epoch }

// SharesStore reports whether two graphs are epochs of the same builder,
// i.e. share one copy-on-write store. Same-store graphs with ordered
// epochs can be diffed incrementally off interned ids; foreign graphs
// must be compared by name.
func (g *Graph) SharesStore(o *Graph) bool { return o != nil && g.st == o.st }

// NumZones reports the number of zones in the graph (root excluded).
func (g *Graph) NumZones() int { return len(g.zones) }

// NumHosts reports the number of distinct nameserver hosts.
func (g *Graph) NumHosts() int { return len(g.hosts) }

// NumChains reports the number of distinct interned delegation chains.
func (g *Graph) NumChains() int { return len(g.chains) }

// NumNames reports the number of surveyed names in the graph.
func (g *Graph) NumNames() int { return g.numNames }

// Hosts returns all nameserver host names; the slice is shared, do not
// modify.
func (g *Graph) Hosts() []string { return g.hosts }

// Host returns the host name for an interned id.
func (g *Graph) Host(id int32) string { return g.hosts[id] }

// HostID returns the interned id of host and whether it exists.
func (g *Graph) HostID(host string) (int32, bool) {
	g.st.mu.RLock()
	id, ok := g.st.hostID[dnsname.Canonical(host)]
	g.st.mu.RUnlock()
	if !ok || int(id) >= len(g.hosts) {
		return 0, false
	}
	return id, true
}

// zoneIDOf resolves a canonical apex to a zone id visible at this epoch.
func (g *Graph) zoneIDOf(apex string) (int32, bool) {
	g.st.mu.RLock()
	id, ok := g.st.zoneID[apex]
	g.st.mu.RUnlock()
	if !ok || int(id) >= len(g.zones) {
		return 0, false
	}
	return id, true
}

// nameVersion resolves a canonical name to its chain mapping at this
// epoch; ok is false when the name is absent (never surveyed, surveyed
// later than this epoch, or failed by this epoch).
func (g *Graph) nameVersion(name string) (int32, bool) {
	g.st.mu.RLock()
	cid, ok := g.nameAtLocked(name)
	g.st.mu.RUnlock()
	return cid, ok
}

// nameAtLocked is nameVersion with the store lock held by the caller. A
// name lives in exactly one of the two tables: the versioned table when
// it was ever touched after the first live epoch, the compact base
// table otherwise (base entries are visible to every published epoch).
func (g *Graph) nameAtLocked(name string) (int32, bool) {
	if vs, ok := g.st.names[name]; ok {
		v, ok := vs.at(g.epoch)
		if !ok || !v.present {
			return 0, false
		}
		return v.cid, true
	}
	if cid, ok := g.st.base[name]; ok {
		return cid, true
	}
	return 0, false
}

// hostChainOfLocked returns host h's address chain as visible at this
// epoch (nil while unattached). Callers hold st.mu.
func (g *Graph) hostChainOfLocked(h int32) []int32 {
	if at := g.st.hostChainAt[h]; at == 0 || at > g.epoch {
		return nil
	}
	return g.st.hostChain[h]
}

// hostChainOf is hostChainOfLocked with its own lock.
func (g *Graph) hostChainOf(h int32) []int32 {
	g.st.mu.RLock()
	defer g.st.mu.RUnlock()
	return g.hostChainOfLocked(h)
}

// Zones returns all zone apexes; the slice is shared, do not modify.
func (g *Graph) Zones() []string { return g.zones }

// Zone returns the zone apex for an interned id.
func (g *Graph) Zone(id int32) string { return g.zones[id] }

// ZoneNS returns the NS host ids of a zone apex.
func (g *Graph) ZoneNS(apex string) []int32 {
	id, ok := g.zoneIDOf(dnsname.Canonical(apex))
	if !ok {
		return nil
	}
	return g.zoneNS[id]
}

// ZoneNSIDs returns the NS host ids of an interned zone id; the slice is
// shared, do not modify.
func (g *Graph) ZoneNSIDs(z int32) []int32 { return g.zoneNS[z] }

// HostChainIDs returns the zone ids on an interned host's address chain;
// the slice is shared, do not modify.
func (g *Graph) HostChainIDs(h int32) []int32 { return g.hostChainOf(h) }

// HostChainZones returns the zone apexes on host's address chain.
func (g *Graph) HostChainZones(host string) []string {
	id, ok := g.HostID(host)
	if !ok {
		return nil
	}
	chain := g.hostChainOf(id)
	out := make([]string, 0, len(chain))
	for _, zid := range chain {
		out = append(out, g.zones[zid])
	}
	return out
}

// Names returns the surveyed names in sorted order. The slice is
// computed once per graph and shared; do not modify.
func (g *Graph) Names() []string {
	g.namesOnce.Do(func() {
		out := make([]string, 0, g.numNames)
		g.st.mu.RLock()
		for name := range g.st.base {
			out = append(out, name)
		}
		for name, vs := range g.st.names {
			if v, ok := vs.at(g.epoch); ok && v.present {
				out = append(out, name)
			}
		}
		g.st.mu.RUnlock()
		sort.Strings(out)
		g.names = out
	})
	return g.names
}

// NameChainID returns the interned chain id of a surveyed name and
// whether the name is in the survey. Names sharing a delegation chain
// share a chain id, so per-chain analysis results (TCBs, min-cuts) can be
// memoized by id instead of re-joining zone strings.
func (g *Graph) NameChainID(name string) (int32, bool) {
	return g.nameVersion(dnsname.Canonical(name))
}

// ChainZoneIDs returns the zone ids of an interned chain, TLD-first; the
// slice is shared, do not modify.
func (g *Graph) ChainZoneIDs(cid int32) []int32 { return g.chains[cid] }

// ChainTCBIDs returns the sorted host ids of the TCB shared by every name
// on the interned chain; the slice is shared, do not modify.
func (g *Graph) ChainTCBIDs(cid int32) []int32 { return g.chainTCB[cid] }

// ChainStamp reports the epoch at which the chain's dependency structure
// last changed: its TCB set, or the address chain of a TCB member (which
// can reshape the min-cut digraph without changing the TCB set). A chain
// whose stamp is at or below an older same-store epoch is structurally
// identical in both epochs.
func (g *Graph) ChainStamp(cid int32) int64 { return g.chainStamp[cid] }

// ChainsChangedSince returns the interned chain ids whose dependency
// structure changed after the given epoch, in id order. With epoch equal
// to an older same-store graph's Epoch, the result is exactly the set of
// chains a timeline diff must examine — everything else diffs to nothing
// in O(1).
func (g *Graph) ChainsChangedSince(epoch int64) []int32 {
	var out []int32
	for ci, st := range g.chainStamp {
		if st > epoch {
			out = append(out, int32(ci))
		}
	}
	return out
}

// NamesTouchedSince returns, sorted and deduplicated, the names whose
// chain mapping changed after the given epoch (completed, failed, or
// re-chained) — the per-epoch journal kept by the builder, so a small
// Add's touched set is read without scanning the name table.
func (g *Graph) NamesTouchedSince(epoch int64) []string {
	var out []string
	g.st.mu.RLock()
	for e := epoch + 1; e <= g.epoch; e++ {
		out = append(out, g.st.touched[e]...)
	}
	g.st.mu.RUnlock()
	if len(out) == 0 {
		return nil
	}
	sort.Strings(out)
	dst := out[:1]
	for _, n := range out[1:] {
		if n != dst[len(dst)-1] {
			dst = append(dst, n)
		}
	}
	return dst
}

// JournalComplete reports whether the per-epoch change journal is
// intact for every epoch after the given one, i.e. whether an
// incremental diff from that epoch is possible. Journals below the
// pruned floor are gone (Builder.PruneJournal); a diff from an evicted
// generation falls back to the by-name path instead.
func (g *Graph) JournalComplete(since int64) bool {
	g.st.mu.RLock()
	defer g.st.mu.RUnlock()
	return since >= g.st.journalFloor
}

// TouchedSince reports whether any name's chain mapping changed after
// the given epoch — the O(#epochs) fast path behind "this batch changed
// nothing", without materializing the journal.
func (g *Graph) TouchedSince(epoch int64) bool {
	g.st.mu.RLock()
	defer g.st.mu.RUnlock()
	for e := epoch + 1; e <= g.epoch; e++ {
		if len(g.st.touched[e]) > 0 {
			return true
		}
	}
	return false
}

// ChainLive reports whether at least one surveyed name maps to the
// interned chain at this epoch — NamesOnChain's emptiness test without
// materializing or sorting the name list (stops at the first live hit).
func (g *Graph) ChainLive(cid int32) bool {
	if int(cid) >= len(g.chains) {
		return false
	}
	g.st.mu.RLock()
	defer g.st.mu.RUnlock()
	for _, n := range g.st.chainNames[cid] {
		if c, ok := g.nameAtLocked(n); ok && c == cid {
			return true
		}
	}
	return false
}

// NamesOnChain returns, sorted, the surveyed names mapped to the interned
// chain at this epoch.
func (g *Graph) NamesOnChain(cid int32) []string {
	if int(cid) >= len(g.chains) {
		return nil
	}
	g.st.mu.RLock()
	cand := g.st.chainNames[cid]
	out := make([]string, 0, len(cand))
	for _, n := range cand {
		if c, ok := g.nameAtLocked(n); ok && c == cid {
			out = append(out, n)
		}
	}
	g.st.mu.RUnlock()
	sort.Strings(out)
	dst := out[:0]
	for i, n := range out {
		if i == 0 || n != out[i-1] {
			dst = append(dst, n)
		}
	}
	return dst
}

// NameChainZones returns the zone apexes on a surveyed name's chain.
func (g *Graph) NameChainZones(name string) []string {
	cid, ok := g.NameChainID(name)
	if !ok {
		return nil
	}
	chain := g.chains[cid]
	out := make([]string, 0, len(chain))
	for _, zid := range chain {
		out = append(out, g.zones[zid])
	}
	return out
}

// Detach materializes a store-independent copy of this epoch: cloned
// intern maps, flattened name versions, and deep-copied (but still
// internally aliased) closure/TCB tables. A detached graph answers every
// query identically but shares nothing mutable with the builder — it is
// also the "pin a full epoch" baseline the retention benchmarks compare
// the copy-on-write store against.
func (g *Graph) Detach() *Graph {
	src := g.st
	src.mu.RLock()
	defer src.mu.RUnlock()

	st := newStore(g.numNames)
	st.hosts = g.hosts
	st.zones = g.zones
	st.chains = g.chains
	st.zoneNS = g.zoneNS
	for h, id := range src.hostID {
		if int(id) < len(g.hosts) {
			st.hostID[h] = id
		}
	}
	for z, id := range src.zoneID {
		if int(id) < len(g.zones) {
			st.zoneID[z] = id
		}
	}
	st.hostChain = make([][]int32, len(g.hosts))
	st.hostChainAt = make([]int64, len(g.hosts))
	for h := range st.hostChain {
		if c := g.hostChainOfLocked(int32(h)); c != nil {
			st.hostChain[h] = append([]int32(nil), c...)
			st.hostChainAt[h] = src.hostChainAt[h]
		}
	}
	st.baseEpoch = src.baseEpoch
	for name, cid := range src.base {
		st.base[name] = cid
	}
	st.chainNames = make([][]string, len(g.chains))
	for name, cid := range st.base {
		st.chainNames[cid] = append(st.chainNames[cid], name)
	}
	for name, vs := range src.names {
		if v, ok := vs.at(g.epoch); ok {
			st.names[name] = nameVers{v0: v}
			if v.present {
				st.chainNames[v.cid] = append(st.chainNames[v.cid], name)
			}
		}
	}

	return &Graph{
		st:         st,
		epoch:      g.epoch,
		hosts:      g.hosts,
		zones:      g.zones,
		chains:     g.chains,
		zoneNS:     g.zoneNS,
		numNames:   g.numNames,
		closure:    copyAliased(g.closure),
		zoneAdj:    copyAliased(g.zoneAdj),
		chainTCB:   copyAliased(g.chainTCB),
		chainStamp: append([]int64(nil), g.chainStamp...),
	}
}

// computeClosures condenses the zone dependency digraph with Tarjan's
// algorithm and unions server sets bottom-up over the condensation DAG.
// hostChain is the builder's current chain table (every attach is
// visible to the epoch being finalized).
//
// Only the dirty cone is recomputed. Zone NS sets are immutable and a
// host's chain is attached at most once, so a zone's adjacency can
// differ from prev's only when the zone is new or one of its NS hosts is
// marked in late (attached since prev). Every other zone aliases
// prev.zoneAdj. An SCC is re-unioned only when a member's adjacency
// changed or a successor SCC's closure changed; otherwise its members
// reached exactly the zones they reached in prev and alias prev.closure.
// With prev nil every zone is new, which is the full compute. The result
// reports, per zone, whether its closure differs from prev's.
func (g *Graph) computeClosures(prev *Graph, hostChain [][]int32, late []bool) (changed []bool) {
	n := len(g.zones)
	g.closure = make([][]int32, n)
	g.zoneAdj = make([][]int32, n)
	changed = make([]bool, n)
	if n == 0 {
		return changed
	}
	old := 0
	if prev != nil {
		old = len(prev.zoneAdj)
	}

	// adjDirty[z]: z's adjacency differs from prev's (always, for new
	// zones).
	adj := g.zoneAdj
	adjDirty := make([]bool, n)
	for z := 0; z < n; z++ {
		if z < old && !anyMarked(g.zoneNS[z], late) {
			adj[z] = prev.zoneAdj[z]
			continue
		}
		var deps []int32
		for _, h := range g.zoneNS[z] {
			deps = append(deps, hostChain[h]...)
		}
		sortUnique(&deps)
		if z < old && int32sEqual(prev.zoneAdj[z], deps) {
			adj[z] = prev.zoneAdj[z]
			continue
		}
		adj[z] = deps
		adjDirty[z] = true
	}

	// Iterative Tarjan SCC. Members of SCC c are order[start[c]:start[c+1]].
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	comp := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}

	// Every buffer is sized for n up front, so the pass allocates a fixed
	// number of times whatever the graph's shape.
	stack := make([]int32, 0, n)
	order := make([]int32, 0, n)
	start := make([]int32, 1, n+1)
	var sccCount int32

	type frame struct {
		v    int32
		edge int
	}
	var next int32
	callStack := make([]frame, 0, n)
	for root := int32(0); root < int32(n); root++ {
		if index[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{v: root})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.edge < len(adj[f.v]) {
				w := adj[f.v][f.edge]
				f.edge++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] && low[f.v] > index[w] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-order: pop.
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if low[p.v] > low[v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				i := len(stack) - 1
				for stack[i] != v {
					i--
				}
				for _, w := range stack[i:] {
					onStack[w] = false
					comp[w] = sccCount
				}
				order = append(order, stack[i:]...)
				start = append(start, int32(len(order)))
				stack = stack[:i]
				sccCount++
			}
		}
	}

	// Tarjan emits SCCs in reverse topological order: successors of an
	// SCC always have smaller component ids, so one forward pass suffices.
	sccClosure := make([][]int32, sccCount)
	sccChanged := make([]bool, sccCount)
	// seen[sc] == c marks successor SCC sc as already unioned into c.
	seen := make([]int32, sccCount)
	for i := range seen {
		seen[i] = unvisited
	}
	for c := int32(0); c < sccCount; c++ {
		members := order[start[c]:start[c+1]]
		z0 := members[0]
		if !sccDirty(members, adj, comp, adjDirty, sccChanged) {
			sccClosure[c] = prev.closure[z0]
			continue
		}
		var set []int32
		for _, z := range members {
			set = append(set, g.zoneNS[z]...)
		}
		for _, z := range members {
			for _, w := range adj[z] {
				if sc := comp[w]; sc != c && seen[sc] != c {
					seen[sc] = c
					set = append(set, sccClosure[sc]...)
				}
			}
		}
		sortUnique(&set)
		// Copy-on-write: when the set is unchanged from the previous
		// epoch, every member zone aliases the previous slice.
		if int(z0) < old && int32sEqual(prev.closure[z0], set) {
			set = prev.closure[z0]
		}
		for _, z := range members {
			if int(z) >= old || !int32sEqual(prev.closure[z], set) {
				sccChanged[c] = true
				break
			}
		}
		sccClosure[c] = set
	}
	for z := 0; z < n; z++ {
		g.closure[z] = sccClosure[comp[z]]
		changed[z] = sccChanged[comp[z]]
	}
	return changed
}

// sccDirty reports whether an SCC's closure must be re-unioned: a member's
// adjacency changed, or an edge leads into a successor SCC whose closure
// changed.
func sccDirty(members []int32, adj [][]int32, comp []int32, adjDirty, sccChanged []bool) bool {
	c := comp[members[0]]
	for _, z := range members {
		if adjDirty[z] {
			return true
		}
		for _, w := range adj[z] {
			if sc := comp[w]; sc != c && sccChanged[sc] {
				return true
			}
		}
	}
	return false
}

// computeChainTCBs unions zone closures into one TCB per interned chain.
// Every name on the chain shares the resulting slice, so the per-name
// Figure 2/5/6 passes become O(1) lookups. Only new chains and chains
// through a zone whose closure changed (changed, from computeClosures)
// are re-unioned; TCBs equal to the previous epoch's alias its slices.
// Each chain's stamp records the epoch it last changed — unchanged
// meaning both an identical TCB set and no TCB member whose address
// chain attached late this epoch (a late attach reshapes the min-cut
// digraph even when the TCB set is stable).
func (g *Graph) computeChainTCBs(prev *Graph, late, changed []bool) {
	g.chainTCB = make([][]int32, len(g.chains))
	g.chainStamp = make([]int64, len(g.chains))
	old := 0
	if prev != nil {
		old = len(prev.chainTCB)
	}
	union := func(chain []int32) []int32 {
		var tcb []int32
		for _, z := range chain {
			tcb = append(tcb, g.closure[z]...)
		}
		sortUnique(&tcb)
		return tcb
	}
	for ci, chain := range g.chains {
		if ci >= old {
			g.chainTCB[ci] = union(chain)
			g.chainStamp[ci] = g.epoch
			continue
		}
		tcb := prev.chainTCB[ci]
		if anyMarked(chain, changed) {
			if t := union(chain); !int32sEqual(tcb, t) {
				g.chainTCB[ci] = t
				g.chainStamp[ci] = g.epoch
				continue
			}
		}
		g.chainTCB[ci] = tcb
		if anyMarked(tcb, late) {
			g.chainStamp[ci] = g.epoch
		} else {
			g.chainStamp[ci] = prev.chainStamp[ci]
		}
	}
}

// anyMarked reports whether any id is marked; nil marks mark nothing.
func anyMarked(ids []int32, marks []bool) bool {
	if marks == nil {
		return false
	}
	for _, id := range ids {
		if marks[id] {
			return true
		}
	}
	return false
}

// ZoneClosure returns the sorted host ids transitively reachable from a
// zone apex (its full server dependency set).
func (g *Graph) ZoneClosure(apex string) []int32 {
	id, ok := g.zoneIDOf(dnsname.Canonical(apex))
	if !ok {
		return nil
	}
	return g.closure[id]
}

// TCBIDs returns the sorted host ids of name's trusted computing base:
// the union of the closures of every zone on its delegation chain. Root
// servers are excluded (chains never include the root). The slice is
// shared with every name on the same chain; do not modify.
func (g *Graph) TCBIDs(name string) ([]int32, error) {
	cid, ok := g.NameChainID(name)
	if !ok {
		return nil, fmt.Errorf("core: name %q not in survey", name)
	}
	return g.chainTCB[cid], nil
}

// TCB returns the host names of name's trusted computing base, sorted.
func (g *Graph) TCB(name string) ([]string, error) {
	ids, err := g.TCBIDs(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, g.hosts[id])
	}
	sort.Strings(out)
	return out, nil
}

// TCBSize returns |TCB(name)|, or -1 for unknown names.
func (g *Graph) TCBSize(name string) int {
	ids, err := g.TCBIDs(name)
	if err != nil {
		return -1
	}
	return len(ids)
}

// DirectNS returns the nameserver hosts of name's authoritative zone —
// the servers the name's owner directly chose and trusts (the paper's
// "only 2.2 servers are administered by the nameowner"; everything else
// in the TCB is transitive).
func (g *Graph) DirectNS(name string) ([]string, error) {
	cid, ok := g.NameChainID(name)
	if !ok || len(g.chains[cid]) == 0 {
		return nil, fmt.Errorf("core: name %q not in survey", name)
	}
	chain := g.chains[cid]
	az := chain[len(chain)-1]
	out := make([]string, 0, len(g.zoneNS[az]))
	for _, id := range g.zoneNS[az] {
		out = append(out, g.hosts[id])
	}
	sort.Strings(out)
	return out, nil
}

// OwnedServers splits name's TCB into servers administered by the name's
// owner (same registered domain) and external servers — the paper's
// "only 2.2 servers are administered by the nameowner on average".
func (g *Graph) OwnedServers(name string) (owned, external []string, err error) {
	tcb, err := g.TCB(name)
	if err != nil {
		return nil, nil, err
	}
	rd, rdErr := dnsname.RegisteredDomain(name)
	for _, h := range tcb {
		hrd, err2 := dnsname.RegisteredDomain(h)
		if rdErr == nil && err2 == nil && hrd == rd {
			owned = append(owned, h)
		} else {
			external = append(external, h)
		}
	}
	return owned, external, nil
}

// sortUnique sorts and deduplicates a slice of ids in place.
func sortUnique(ids *[]int32) {
	s := *ids
	if len(s) < 2 {
		return
	}
	slices.Sort(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	*ids = out
}
