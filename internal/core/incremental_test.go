package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dnstrust/internal/core"
)

// epochChecker holds the from-scratch reference of the last epoch, so
// each new epoch can be checked against a recompute and the stamp rule.
type epochChecker struct {
	t     *testing.T
	prev  *core.Graph
	tcb   [][]int32 // reference chainTCB of prev
	stamp []int64   // reference chainStamp of prev
}

// check finishes one epoch of b and asserts that its incremental tables
// equal a recompute with every zone dirty, that its stamps follow the
// rule "bump when the TCB set changed or a TCB member attached late",
// that TakeLateAttached reports exactly the late hosts, and that every
// entry outside the dirty cone aliases the previous epoch's slice.
func (c *epochChecker) check(b *core.Builder) *core.Graph {
	t := c.t
	t.Helper()
	g := b.FinishEpoch()
	gotLate := b.TakeLateAttached()
	closure, adj, tcb, stamp := core.EpochTables(g)
	rClosure, rAdj, rTCB, _ := core.EpochTables(core.RecomputeFromScratch(g))

	for z := range rClosure {
		if !slices.Equal(adj[z], rAdj[z]) {
			t.Fatalf("epoch %d: zoneAdj[%d] = %v, from scratch %v", g.Epoch(), z, adj[z], rAdj[z])
		}
		if !slices.Equal(closure[z], rClosure[z]) {
			t.Fatalf("epoch %d: closure[%d] = %v, from scratch %v", g.Epoch(), z, closure[z], rClosure[z])
		}
	}
	if len(adj) != len(rAdj) || len(closure) != len(rClosure) || len(tcb) != len(rTCB) {
		t.Fatalf("epoch %d: table lengths differ from scratch", g.Epoch())
	}

	// Late hosts, derived from the graphs alone: published at the
	// previous epoch without a chain, chained now.
	var late []int32
	if c.prev != nil {
		for h := 0; h < c.prev.NumHosts(); h++ {
			if c.prev.HostChainIDs(int32(h)) == nil && g.HostChainIDs(int32(h)) != nil {
				late = append(late, int32(h))
			}
		}
	}
	if !slices.Equal(gotLate, late) {
		t.Fatalf("epoch %d: TakeLateAttached = %v, want %v", g.Epoch(), gotLate, late)
	}

	wantStamp := make([]int64, len(rTCB))
	for ci := range rTCB {
		if !slices.Equal(tcb[ci], rTCB[ci]) {
			t.Fatalf("epoch %d: chainTCB[%d] = %v, from scratch %v", g.Epoch(), ci, tcb[ci], rTCB[ci])
		}
		wantStamp[ci] = g.Epoch()
		if ci < len(c.tcb) && slices.Equal(rTCB[ci], c.tcb[ci]) &&
			!slices.ContainsFunc(c.tcb[ci], func(h int32) bool { _, ok := slices.BinarySearch(late, h); return ok }) {
			wantStamp[ci] = c.stamp[ci]
		}
		if stamp[ci] != wantStamp[ci] {
			t.Fatalf("epoch %d: chainStamp[%d] = %d, want %d", g.Epoch(), ci, stamp[ci], wantStamp[ci])
		}
	}

	if c.prev != nil && c.prev.SharesStore(g) {
		c.checkAliasing(g, closure, adj, tcb, rAdj)
	}
	c.prev, c.tcb, c.stamp = g, rTCB, wantStamp
	return g
}

// checkAliasing asserts that the skipped work was skipped: zones outside
// the dirty cone (neither new nor reaching a zone whose adjacency
// changed) share the previous epoch's closure slice, unchanged
// adjacencies share its adjacency slice, and chains through clean zones
// only share its TCB slice.
func (c *epochChecker) checkAliasing(g *core.Graph, closure, adj, tcb, rAdj [][]int32) {
	t := c.t
	t.Helper()
	pClosure, pAdj, pTCB, _ := core.EpochTables(c.prev)

	// The cone: zones whose adjacency changed (or is new), plus every
	// zone that reaches one of them.
	dirty := make([]bool, len(rAdj))
	rev := make([][]int32, len(rAdj))
	var queue []int32
	for z := range rAdj {
		for _, w := range rAdj[z] {
			rev[w] = append(rev[w], int32(z))
		}
		if z >= len(pAdj) || !slices.Equal(rAdj[z], pAdj[z]) {
			dirty[z] = true
			queue = append(queue, int32(z))
		}
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		for _, z := range rev[w] {
			if !dirty[z] {
				dirty[z] = true
				queue = append(queue, z)
			}
		}
	}

	for z := range pAdj {
		if slices.Equal(adj[z], pAdj[z]) && !sameSlice(adj[z], pAdj[z]) {
			t.Fatalf("epoch %d: unchanged zoneAdj[%d] does not alias the previous epoch", g.Epoch(), z)
		}
		if !dirty[z] && !sameSlice(closure[z], pClosure[z]) {
			t.Fatalf("epoch %d: clean closure[%d] does not alias the previous epoch", g.Epoch(), z)
		}
	}
	for ci := range pTCB {
		clean := !slices.ContainsFunc(g.ChainZoneIDs(int32(ci)), func(z int32) bool { return dirty[z] })
		if (clean || slices.Equal(tcb[ci], pTCB[ci])) && !sameSlice(tcb[ci], pTCB[ci]) {
			t.Fatalf("epoch %d: unchanged chainTCB[%d] does not alias the previous epoch", g.Epoch(), ci)
		}
	}
}

// sameSlice reports pointer identity of two non-empty slices (empty
// slices carry no identity and always match).
func sameSlice(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestIncrementalEpochScenarios drives the cases the dirty-cone rule must
// get right, one epoch at a time: a new zone depending on old ones, a
// late attachment that merges two SCCs, an NS cycle, fail→complete flips
// within and across batches, and the fleet id path.
func TestIncrementalEpochScenarios(t *testing.T) {
	c := &epochChecker{t: t}
	b := core.NewBuilder(0)

	// Epoch 1: b depends on a; c and d form an NS cycle; a lists hx and
	// e lists he, both still chain-less.
	b.ObserveZone("a", []string{"ha", "hx"})
	b.ObserveChain("ha", []string{"a"})
	b.ObserveZone("b", []string{"hb"})
	b.ObserveChain("hb", []string{"a"})
	b.ObserveZone("c", []string{"hc"})
	b.ObserveZone("d", []string{"hd"})
	b.ObserveChain("hc", []string{"d"})
	b.ObserveChain("hd", []string{"c"})
	b.ObserveZone("e", []string{"he"})
	b.Complete("n1", []string{"a", "b"})
	b.Complete("n2", []string{"c"})
	b.Complete("n3", []string{"e"})
	b.Complete("n4", []string{"d"})
	g1 := c.check(b)
	if slices.Equal(g1.ZoneClosure("a"), g1.ZoneClosure("b")) {
		t.Fatal("epoch 1: a and b already share a closure")
	}
	if !slices.Equal(g1.ZoneClosure("c"), g1.ZoneClosure("d")) {
		t.Fatal("epoch 1: the c/d cycle does not share a closure")
	}

	// Epoch 2: hx attaches late through b, so a and b merge into one
	// SCC; a new zone f depends on old a and c; n1 flips fail→complete
	// within the batch, n2 fails.
	b.ObserveChain("hx", []string{"b"})
	b.ObserveZone("f", []string{"hf"})
	b.ObserveChain("hf", []string{"a", "c"})
	b.Complete("n5", []string{"f"})
	b.Fail("n1", errors.New("timeout"))
	b.Complete("n1", []string{"a", "b"})
	b.Fail("n2", errors.New("timeout"))
	g2 := c.check(b)
	if !slices.Equal(g2.ZoneClosure("a"), g2.ZoneClosure("b")) {
		t.Fatal("epoch 2: the late attachment did not merge a and b")
	}
	if _, err := g2.TCB("n2"); err == nil {
		t.Fatal("epoch 2: failed name still resolves")
	}

	// Epoch 3, fleet id path: a new zone g over a new host, and he (a
	// published chain-less host) attaches late through g; n2 heals.
	hg := b.InternHost("hg")
	zg := b.InternZone("g", []int32{hg})
	za := b.InternZone("a", nil) // known apex: returns its id
	b.AttachHostChain(hg, b.InternChain([]int32{za, zg}))
	he := b.InternHost("he")
	b.AttachHostChain(he, b.InternChain([]int32{zg}))
	b.CompleteChain("n6", b.InternChain([]int32{zg}))
	b.Complete("n2", []string{"c"})
	g3 := c.check(b)
	if id, _ := g3.HostID("he"); !slices.Contains(g3.ZoneClosure("e"), id) || len(g3.ZoneClosure("e")) < 3 {
		t.Fatalf("epoch 3: closure of e = %v, want he plus the closure of g", g3.ZoneClosure("e"))
	}

	// Epoch 4: nothing but a name on an existing chain — every closure
	// and TCB aliases epoch 3's.
	b.Complete("n7", []string{"c"})
	c.check(b)
}

// eventStream feeds a builder random walker events over a growing
// universe: new zones whose NS hosts are old, new, chain-less or
// surveyed names; chains through any known zones (so NS cycles and SCC
// merges arise); completions, re-chains, failures and heals — through
// both the string event path and the fleet id path.
type eventStream struct {
	r     *rand.Rand
	zones []string // zone id = index: zones are only ever added here
	hosts []string
	names []string
}

func (s *eventStream) pick(from []string) string { return from[s.r.Intn(len(from))] }

// chain returns 0-3 distinct known zones, as apexes and as zone ids.
func (s *eventStream) chain() ([]string, []int32) {
	var apexes []string
	var ids []int32
	for k := s.r.Intn(4); k > 0 && len(s.zones) > 0; k-- {
		id := int32(s.r.Intn(len(s.zones)))
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
			apexes = append(apexes, s.zones[id])
		}
	}
	return apexes, ids
}

func (s *eventStream) event(b *core.Builder) {
	fleet := s.r.Intn(3) == 0
	switch k := s.r.Intn(10); {
	case k < 2 || len(s.zones) == 0: // new zone
		apex := fmt.Sprintf("z%d", len(s.zones))
		var ns []string
		for j := 1 + s.r.Intn(3); j > 0; j-- {
			switch {
			case len(s.hosts) > 0 && s.r.Intn(5) < 2:
				ns = append(ns, s.pick(s.hosts))
			case len(s.names) > 0 && s.r.Intn(5) == 0:
				ns = append(ns, s.pick(s.names))
			default:
				ns = append(ns, fmt.Sprintf("h%d", len(s.hosts)))
			}
			if !slices.Contains(s.hosts, ns[len(ns)-1]) {
				s.hosts = append(s.hosts, ns[len(ns)-1])
			}
		}
		if fleet {
			ids := make([]int32, len(ns))
			for i, h := range ns {
				ids[i] = b.InternHost(h)
			}
			b.InternZone(apex, ids)
		} else {
			b.ObserveZone(apex, ns)
		}
		s.zones = append(s.zones, apex)
	case k < 5: // a chain for a host (late, new, or not yet interned)
		host := fmt.Sprintf("p%d", s.r.Intn(50))
		if len(s.hosts) > 0 && s.r.Intn(4) > 0 {
			host = s.pick(s.hosts)
		}
		apexes, ids := s.chain()
		if fleet {
			b.AttachHostChain(b.InternHost(host), b.InternChain(ids))
		} else {
			b.ObserveChain(host, apexes)
		}
	case k < 8: // complete a new name, or re-chain a known one
		name := fmt.Sprintf("n%d", len(s.names))
		if len(s.names) > 0 && s.r.Intn(3) == 0 {
			name = s.pick(s.names)
		} else {
			s.names = append(s.names, name)
		}
		s.complete(b, name, fleet)
	case k < 9: // fail a known name
		if len(s.names) > 0 {
			b.Fail(s.pick(s.names), errors.New("walk failed"))
		}
	default: // fail→complete flip within the batch
		if len(s.names) > 0 {
			name := s.pick(s.names)
			b.Fail(name, errors.New("transient"))
			s.complete(b, name, fleet)
		}
	}
}

func (s *eventStream) complete(b *core.Builder, name string, fleet bool) {
	apexes, ids := s.chain()
	if fleet {
		b.CompleteChain(name, b.InternChain(ids))
	} else {
		b.Complete(name, apexes)
	}
}

// TestIncrementalEpochsMatchFromScratch is the dirty-cone property:
// across random event streams, finishing an epoch after every batch
// yields exactly the tables a from-scratch recompute yields, with
// stamps per the stamp rule and clean entries aliased.
func TestIncrementalEpochsMatchFromScratch(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		s := &eventStream{r: rand.New(rand.NewSource(seed))}
		b := core.NewBuilder(0)
		c := &epochChecker{t: t}
		for e := 0; e < 15; e++ {
			for n := s.r.Intn(30); n > 0; n-- {
				s.event(b)
			}
			c.check(b)
		}
	}
}

// TestFinishEpochCostFollowsBatch pins that a small batch does not pay
// for the resident store: finishing an epoch after a one-name batch
// allocates the same handful of times (headers and per-pass buffers)
// whether the store holds 500 names or 20000. Recomputing every closure
// and TCB would allocate per zone and per chain.
func TestFinishEpochCostFollowsBatch(t *testing.T) {
	allocs := func(total int) float64 {
		b := core.NewBuilder(total)
		core.FeedSynthetic(b, total)
		b.FinishEpoch()
		extra := make([]string, 20)
		for i := range extra {
			extra[i] = fmt.Sprintf("extra%d.dom0.tld0", i)
		}
		chain := []string{"tld0", "dom0.tld0"}
		i := 0
		return testing.AllocsPerRun(10, func() {
			b.Complete(extra[i], chain)
			i++
			b.FinishEpoch()
		})
	}
	small, big := allocs(500), allocs(20000)
	if big > small+2 || big > 40 {
		t.Fatalf("allocs per one-name epoch: %.0f at 500 names, %.0f at 20000 names", small, big)
	}
}
