package dnstrust

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"dnstrust/internal/dnswire"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
)

// TestMonitorTimelineRetention checks the bounded history: Retain
// generations stay queryable and diffable, older ones are evicted, and
// Between names what is still available.
func TestMonitorTimelineRetention(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 7, Names: 200, Retain: 3})
	ctx := context.Background()
	corpus := m.World().Corpus

	third := len(corpus) / 3
	batches := [][]string{corpus[:third], corpus[third : 2*third], corpus[2*third:]}
	for _, b := range batches {
		if _, err := m.Add(ctx, b...); err != nil {
			t.Fatal(err)
		}
	}

	tl := m.Timeline()
	gens := make([]int64, len(tl))
	for i, v := range tl {
		gens[i] = v.Generation()
	}
	if !reflect.DeepEqual(gens, []int64{1, 2, 3}) {
		t.Fatalf("timeline generations = %v, want [1 2 3] (gen 0 evicted by Retain=3)", gens)
	}
	if m.At() != tl[len(tl)-1] {
		t.Error("newest timeline entry must be At()'s view")
	}

	// Between across retained generations reports exactly the names the
	// later batches added.
	d, err := m.Between(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, v := range tl[2].Names() {
		want[v] = true
	}
	for _, v := range tl[0].Names() {
		delete(want, v)
	}
	if len(d.NamesAdded) != len(want) {
		t.Errorf("Between(1,3).NamesAdded = %d names, want %d", len(d.NamesAdded), len(want))
	}
	if len(d.NamesRemoved) != 0 {
		t.Errorf("NamesRemoved = %v, want none", d.NamesRemoved)
	}
	if d.FromGen != 1 || d.ToGen != 3 {
		t.Errorf("delta generations = %d..%d, want 1..3", d.FromGen, d.ToGen)
	}

	// Self-diff is empty; evicted and reversed ranges error.
	if d, err := m.Between(2, 2); err != nil || !d.Empty() {
		t.Errorf("Between(2,2) = %+v, %v; want empty delta", d, err)
	}
	if _, err := m.Between(0, 3); err == nil {
		t.Error("Between on the evicted generation 0 must error")
	}
	if _, err := m.Between(3, 1); err == nil {
		t.Error("Between(3,1) must reject from > to")
	}
}

// TestDiffFromEvictedGeneration checks journal pruning: once a
// generation falls off the retention window its change journals are
// discarded, and a caller still holding that evicted View must get a
// correct diff through the by-name fallback (never a silently
// incomplete incremental one).
func TestDiffFromEvictedGeneration(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 7, Names: 200, Retain: 2})
	ctx := context.Background()
	corpus := m.World().Corpus

	v1, err := m.Add(ctx, corpus[:50]...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(ctx, corpus[:120]...); err != nil {
		t.Fatal(err)
	}
	v3, err := m.Add(ctx, corpus...)
	if err != nil {
		t.Fatal(err)
	}
	if tl := m.Timeline(); len(tl) != 2 || tl[0].Generation() != 2 {
		t.Fatalf("timeline = %v gens, want [2 3]", len(tl))
	}

	// v1 is evicted and its journal range pruned; the diff must still be
	// exact: every name v3 has beyond v1's set, nothing removed.
	d, err := v3.Diff(v1)
	if err != nil {
		t.Fatal(err)
	}
	if want := v3.NumNames() - v1.NumNames(); len(d.NamesAdded) != want || len(d.NamesRemoved) != 0 {
		t.Errorf("evicted diff: +%d -%d names, want +%d -0",
			len(d.NamesAdded), len(d.NamesRemoved), want)
	}
	if d.FromGen != 1 || d.ToGen != 3 {
		t.Errorf("delta generations = %d..%d, want 1..3", d.FromGen, d.ToGen)
	}
	if d.Compared != v3.NumNames() {
		t.Errorf("Compared = %d, want %d", d.Compared, v3.NumNames())
	}
}

// TestViewDiffForeignMonitors checks the by-name path: two independent
// sessions over identical worlds diff to nothing, and the result is
// identical no matter which monitor's view is newer.
func TestViewDiffForeignMonitors(t *testing.T) {
	ctx := context.Background()
	mA := openTestMonitor(t, Options{Seed: 11, Names: 150})
	mB := openTestMonitor(t, Options{Seed: 11, Names: 150})
	vA, err := mA.Add(ctx, mA.World().Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	vB, err := mB.Add(ctx, mB.World().Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := vB.Diff(vA)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("identical worlds diffed to %+v, want empty", d)
	}
	if _, err := vB.Diff(nil); err == nil {
		t.Error("Diff(nil) must error")
	}
}

// TestMonitorGenerationMatchesCommittedView is the regression test for
// Monitor.Generation reading the engine counter directly: with the
// engine advanced past the monitor's committed view (exactly the state
// mid-Add, between the engine's commit and the monitor's), Generation
// must keep reporting what At() serves.
func TestMonitorGenerationMatchesCommittedView(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 7, Names: 100})
	ctx := context.Background()

	// Drive the engine directly, bypassing the monitor's commit: the
	// engine is now at generation 1 while the monitor still serves 0.
	if _, err := m.eng.Add(ctx, m.World().Corpus[:10]...); err != nil {
		t.Fatal(err)
	}
	if g := m.eng.Generation(); g != 1 {
		t.Fatalf("engine generation = %d, want 1", g)
	}
	if got, at := m.Generation(), m.At().Generation(); got != at || got != 0 {
		t.Fatalf("Generation() = %d with At() at %d; an uncommitted engine generation leaked", got, at)
	}
}

// gateSource blocks every query until released, so a test can hold an
// Add in flight at a deterministic point.
type gateSource struct {
	inner transport.Source
	gate  chan struct{}
}

func (g *gateSource) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.Query(ctx, server, name, qtype, class)
}

func (g *gateSource) Close() error { return g.inner.Close() }

// TestMonitorGenerationDuringBlockedAdd holds a crawl mid-flight on a
// gated transport and checks Generation/At agree throughout.
func TestMonitorGenerationDuringBlockedAdd(t *testing.T) {
	ctx := context.Background()
	world, err := NewWorld(Options{Seed: 7, Names: 100})
	if err != nil {
		t.Fatal(err)
	}
	gate := &gateSource{inner: world.Registry.Source(), gate: make(chan struct{})}
	m, err := OpenWorld(ctx, world, Options{Source: gate, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })

	done := make(chan error, 1)
	go func() {
		_, err := m.Add(ctx, world.Corpus...)
		done <- err
	}()

	// The Add is blocked on the first transport query: nothing is
	// committed, and Generation must agree with At.
	if got, at := m.Generation(), m.At().Generation(); got != 0 || at != 0 {
		t.Errorf("blocked Add: Generation() = %d, At() = %d, want 0, 0", got, at)
	}
	close(gate.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, at := m.Generation(), m.At().Generation(); got != 1 || at != 1 {
		t.Errorf("after Add: Generation() = %d, At() = %d, want 1, 1", got, at)
	}
}

// TestViewNamesDefensiveCopies checks the View accessors hand out
// caller-owned slices: mutating a result must not corrupt the view.
func TestViewNamesDefensiveCopies(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 7, Names: 100})
	v, err := m.Add(context.Background(), m.World().Corpus...)
	if err != nil {
		t.Fatal(err)
	}
	names := v.Names()
	if len(names) == 0 {
		t.Fatal("no names surveyed")
	}
	if v.NumNames() != len(names) {
		t.Errorf("NumNames = %d, Names has %d", v.NumNames(), len(names))
	}
	orig0 := names[0]
	names[0] = "clobbered.example"
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	if got := v.Names(); got[0] != orig0 {
		t.Errorf("mutating Names() result leaked into the view: Names()[0] = %q, want %q", got[0], orig0)
	}
	if v.Survey().Names[0] != orig0 {
		t.Errorf("mutation reached the survey's shared slice")
	}

	pop := v.Popular()
	if len(pop) > 0 {
		pop[0] = "clobbered.example"
		if got := v.Popular(); got[0] == "clobbered.example" {
			t.Error("mutating Popular() result leaked into the world")
		}
	}
}

// fakeSource counts Close calls and fails them with a fixed error.
type fakeSource struct {
	closes atomic.Int32
	err    error
}

func (f *fakeSource) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	return nil, errors.New("fakeSource: not reachable")
}

func (f *fakeSource) Close() error {
	f.closes.Add(1)
	return f.err
}

// errSource fails Close with a distinct error, for join assertions.
type errSource struct {
	fakeSource
}

// TestOwnedReplayClose checks the strict-replay ownership wrapper: both
// the replay source and the displaced terminal close exactly once, and
// both close errors surface joined.
func TestOwnedReplayClose(t *testing.T) {
	errA, errB := errors.New("replay close failed"), errors.New("terminal close failed")
	replay := &fakeSource{err: errA}
	terminal := &fakeSource{err: errB}
	o := ownedReplay{Source: replay, displaced: terminal}
	err := o.Close()
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Errorf("Close error = %v, want both %v and %v joined", err, errA, errB)
	}
	if replay.closes.Load() != 1 || terminal.closes.Load() != 1 {
		t.Errorf("closes = %d/%d, want exactly once each", replay.closes.Load(), terminal.closes.Load())
	}
}

// TestMonitorCloseReleasesDisplacedSource checks the integration path: a
// session opened with both a caller Source and a strict ReplayLog closes
// the displaced source exactly once, and a second Close is an idempotent
// no-op.
func TestMonitorCloseReleasesDisplacedSource(t *testing.T) {
	world, err := NewWorld(Options{Seed: 7, Names: 50})
	if err != nil {
		t.Fatal(err)
	}
	terminal := &fakeSource{}
	m, err := OpenWorld(context.Background(), world, Options{
		Source:    terminal,
		ReplayLog: transport.NewLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if got := terminal.closes.Load(); got != 1 {
		t.Fatalf("displaced terminal closed %d times, want 1", got)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close = %v, want idempotent nil", err)
	}
	if got := terminal.closes.Load(); got != 1 {
		t.Errorf("second Close re-closed the source (%d closes)", got)
	}
}

// diffWorlds builds the hand-made pair of worlds for the injected
// delegation change: zone corp.com drops nsz.legacy.net between the
// recordings, while other.com keeps delegating through it.
func diffWorlds() (older, newer *topology.World, corpus []string) {
	build := func(dropNSZ bool) *topology.World {
		b := topology.NewWorld()
		gtld := []string{"a.gtld-servers.net", "b.gtld-servers.net"}
		b.Zone("com", gtld...)
		b.Zone("net", gtld...)
		b.Zone("gtld-servers.net", gtld...)
		corpNS := []string{"ns1.host.net", "nsz.legacy.net"}
		if dropNSZ {
			corpNS = corpNS[:1]
		}
		b.Zone("corp.com", corpNS...)
		b.Zone("host.net", "ns1.host.net")
		b.Zone("legacy.net", "nsz.legacy.net")
		b.Zone("other.com", "nsz.legacy.net")
		b.Host("www.corp.com")
		b.Host("www.other.com")
		return &topology.World{Registry: b.Finalize(), Corpus: []string{"www.corp.com", "www.other.com"}}
	}
	older, newer = build(false), build(true)
	return older, newer, older.Corpus
}

// recordCrawl crawls a world once with recording on and returns the log.
func recordCrawl(t *testing.T, world *topology.World, corpus []string) *QueryLog {
	t.Helper()
	lg := transport.NewLog()
	m, err := OpenWorld(context.Background(), world, Options{RecordLog: lg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Add(context.Background(), corpus...); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return lg
}

// TestDiffLogsReportsInjectedChange is the acceptance test for the
// three-line drift study: two recordings of the same corpus, one
// delegation change injected between them. DiffLogs must report exactly
// that change — the zone's NS drift, the affected name's TCB loss, and
// the dropped host's zombie classification — and the strict replays must
// never touch a terminal transport.
func TestDiffLogsReportsInjectedChange(t *testing.T) {
	older, newer, corpus := diffWorlds()
	logA := recordCrawl(t, older, corpus)
	logB := recordCrawl(t, newer, corpus)

	d, err := DiffLogs(context.Background(), logA, logB, Options{
		Corpus: corpus,
		Roots:  older.Registry.RootServers(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exactly the injected change, nothing else.
	if len(d.NamesAdded) != 0 || len(d.NamesRemoved) != 0 {
		t.Errorf("spurious name churn: +%v -%v", d.NamesAdded, d.NamesRemoved)
	}
	if len(d.ZonesAdded) != 0 || len(d.ZonesRemoved) != 0 {
		t.Errorf("spurious zone churn: +%v -%v", d.ZonesAdded, d.ZonesRemoved)
	}
	if len(d.ZoneChanges) != 1 || d.ZoneChanges[0].Apex != "corp.com" ||
		!reflect.DeepEqual(d.ZoneChanges[0].NSRemoved, []string{"nsz.legacy.net"}) ||
		len(d.ZoneChanges[0].NSAdded) != 0 {
		t.Errorf("zone changes = %+v, want exactly corp.com -nsz.legacy.net", d.ZoneChanges)
	}
	if len(d.Changed) != 1 || d.Changed[0].Name != "www.corp.com" {
		t.Fatalf("changed names = %+v, want exactly www.corp.com", d.Changed)
	}
	c := d.Changed[0]
	if c.ChainChanged {
		t.Error("delegation chain (zone sequence) did not change; only the NS set did")
	}
	if !contains(c.TCBRemoved, "nsz.legacy.net") || c.Growth() >= 0 {
		t.Errorf("www.corp.com change = %+v, want nsz.legacy.net leaving and the TCB shrinking", c)
	}
	if len(d.Zombies) != 1 {
		t.Fatalf("zombies = %+v, want exactly nsz.legacy.net", d.Zombies)
	}
	z := d.Zombies[0]
	if z.Host != "nsz.legacy.net" || z.Kind != DelegationRemoved ||
		!reflect.DeepEqual(z.Zones, []string{"corp.com"}) || z.Names == 0 {
		t.Errorf("zombie = %+v, want nsz.legacy.net delegation-removed via corp.com, still trusted", z)
	}

	// Zero terminal queries: replay the newer log with a terminal source
	// attached — strict replay must displace it completely. (DiffLogs
	// builds the same strict chains without any terminal at all.)
	terminal := &countingSource{}
	world, err := NewWorld(Options{Seed: 1, Names: 50})
	if err != nil {
		t.Fatal(err)
	}
	world.Corpus = corpus
	m, err := OpenWorld(context.Background(), world, Options{
		Source:    terminal,
		Roots:     older.Registry.RootServers(),
		ReplayLog: logB,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Add(context.Background(), corpus...); err != nil {
		t.Fatal(err)
	}
	if n := terminal.queries.Load(); n != 0 {
		t.Errorf("strict replay issued %d terminal queries, want 0", n)
	}
}

// countingSource counts queries reaching it (a would-be live terminal).
type countingSource struct {
	queries atomic.Int64
}

func (c *countingSource) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	c.queries.Add(1)
	return nil, errors.New("countingSource: terminal must not be queried")
}

func (c *countingSource) Close() error { return nil }

// TestDiffLogsIdenticalRecordings checks the generated-world path: two
// recordings of the same crawl diff to an empty delta.
func TestDiffLogsIdenticalRecordings(t *testing.T) {
	opts := Options{Seed: 7, Names: 120}
	world, err := NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	logA := recordCrawl(t, world, world.Corpus)
	world2, err := NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	logB := recordCrawl(t, world2, world2.Corpus)

	d, err := DiffLogs(context.Background(), logA, logB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("identical recordings diffed to %+v, want empty", d)
	}
}

// TestViewDiffContextNil checks that a nil older view is an error on
// the context-taking path too, never a nil dereference.
func TestViewDiffContextNil(t *testing.T) {
	m := openTestMonitor(t, Options{Seed: 11, Names: 40})
	if _, err := m.At().DiffContext(context.Background(), nil); err == nil {
		t.Error("DiffContext(ctx, nil) must error")
	}
}
