package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// buildEpochs feeds a synthetic corpus across several epochs with some
// churn (failures, re-completions, a pending chain) so every store and
// builder table is populated.
func buildEpochs(total, epochs int) *Builder {
	b := NewBuilder(total)
	per := total / epochs
	for e := 0; e < epochs; e++ {
		lo, hi := e*per, (e+1)*per
		if e == epochs-1 {
			hi = total
		}
		FeedSyntheticRange(b, lo, hi, total)
		if e == 1 {
			// Churn: one name fails, one re-chains, one fails then heals.
			b.Fail("www0.dom0.tld0", errors.New("walk timed out"))
			b.Complete("www1.dom0.tld0", []string{"tld1", "dom1.tld1"})
			b.Fail("www2.dom0.tld0", errors.New("transient"))
			b.Complete("www2.dom0.tld0", []string{"tld0", "dom0.tld0"})
		}
		if e == 2 {
			b.Complete("www0.dom0.tld0", []string{"tld0", "dom0.tld0"})
		}
		b.FinishEpoch()
	}
	// A chain for a key that is not an interned host stays pending; a
	// failure with a resolved chain lands in failedChain.
	b.ObserveChain("orphan.example", []string{"tld0", "dom0.tld0"})
	b.ObserveChain("doomed.example", []string{"tld1", "dom1.tld1"})
	b.Fail("doomed.example", errors.New("no address"))
	return b
}

// compareGraphs asserts got answers every read API identically to want.
func compareGraphs(t *testing.T, want, got *Graph) {
	t.Helper()
	if got.Epoch() != want.Epoch() {
		t.Fatalf("epoch = %d, want %d", got.Epoch(), want.Epoch())
	}
	if got.NumNames() != want.NumNames() || got.NumZones() != want.NumZones() ||
		got.NumHosts() != want.NumHosts() || got.NumChains() != want.NumChains() {
		t.Fatalf("dims = (%d names, %d zones, %d hosts, %d chains), want (%d, %d, %d, %d)",
			got.NumNames(), got.NumZones(), got.NumHosts(), got.NumChains(),
			want.NumNames(), want.NumZones(), want.NumHosts(), want.NumChains())
	}
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatal("Names() differ")
	}
	if !reflect.DeepEqual(got.Hosts(), want.Hosts()) || !reflect.DeepEqual(got.Zones(), want.Zones()) {
		t.Fatal("intern tables differ")
	}
	for z := range want.zones {
		zid := int32(z)
		if !int32sEqual(got.ZoneNSIDs(zid), want.ZoneNSIDs(zid)) {
			t.Fatalf("zoneNS[%d] = %v, want %v", z, got.ZoneNSIDs(zid), want.ZoneNSIDs(zid))
		}
		if !int32sEqual(got.closure[z], want.closure[z]) {
			t.Fatalf("closure[%d] differs", z)
		}
		if !int32sEqual(got.zoneAdj[z], want.zoneAdj[z]) {
			t.Fatalf("zoneAdj[%d] differs", z)
		}
	}
	for c := range want.chains {
		cid := int32(c)
		if !int32sEqual(got.ChainZoneIDs(cid), want.ChainZoneIDs(cid)) {
			t.Fatalf("chain %d differs", c)
		}
		if !int32sEqual(got.ChainTCBIDs(cid), want.ChainTCBIDs(cid)) {
			t.Fatalf("chainTCB[%d] differs", c)
		}
		if got.ChainStamp(cid) != want.ChainStamp(cid) {
			t.Fatalf("chainStamp[%d] = %d, want %d", c, got.ChainStamp(cid), want.ChainStamp(cid))
		}
		if !reflect.DeepEqual(got.NamesOnChain(cid), want.NamesOnChain(cid)) {
			t.Fatalf("NamesOnChain(%d) differs", c)
		}
	}
	for h := range want.hosts {
		hid := int32(h)
		if !int32sEqual(got.HostChainIDs(hid), want.HostChainIDs(hid)) {
			t.Fatalf("hostChain[%d] differs", h)
		}
		if (got.HostChainIDs(hid) == nil) != (want.HostChainIDs(hid) == nil) {
			t.Fatalf("hostChain[%d] nilness differs", h)
		}
	}
	for _, name := range want.Names() {
		wt, _ := want.TCBIDs(name)
		gt, err := got.TCBIDs(name)
		if err != nil || !int32sEqual(gt, wt) {
			t.Fatalf("TCB(%q) differs (%v)", name, err)
		}
	}
	for e := int64(0); e <= want.Epoch(); e++ {
		if !reflect.DeepEqual(got.NamesTouchedSince(e), want.NamesTouchedSince(e)) {
			t.Fatalf("NamesTouchedSince(%d) differs", e)
		}
		if got.JournalComplete(e) != want.JournalComplete(e) {
			t.Fatalf("JournalComplete(%d) differs", e)
		}
		if !reflect.DeepEqual(got.ChainsChangedSince(e), want.ChainsChangedSince(e)) {
			t.Fatalf("ChainsChangedSince(%d) differs", e)
		}
	}
}

// compareBuilders asserts the resumable builder state survived.
func compareBuilders(t *testing.T, want, got *Builder) {
	t.Helper()
	if got.epoch != want.epoch || got.shared != want.shared ||
		got.epochHosts != want.epochHosts || got.versionedPresent != want.versionedPresent {
		t.Fatalf("builder scalars differ: got (%d %v %d %d), want (%d %v %d %d)",
			got.epoch, got.shared, got.epochHosts, got.versionedPresent,
			want.epoch, want.shared, want.epochHosts, want.versionedPresent)
	}
	if len(got.failed) != len(want.failed) {
		t.Fatalf("failed count = %d, want %d", len(got.failed), len(want.failed))
	}
	for n, err := range want.failed {
		if g, ok := got.failed[n]; !ok || g.Error() != err.Error() {
			t.Fatalf("failed[%q] = %v, want %v", n, got.failed[n], err)
		}
	}
	if !reflect.DeepEqual(got.failedChain, want.failedChain) {
		t.Fatalf("failedChain differs: %v vs %v", got.failedChain, want.failedChain)
	}
	if !reflect.DeepEqual(got.pending, want.pending) {
		t.Fatalf("pending differs: %v vs %v", got.pending, want.pending)
	}
	if !reflect.DeepEqual(got.chainIDs, want.chainIDs) {
		t.Fatal("rebuilt chainIDs index differs")
	}
	if !reflect.DeepEqual(got.lateAttached, want.lateAttached) {
		t.Fatal("lateAttached differs")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	b := buildEpochs(500, 3)
	var buf bytes.Buffer
	if err := b.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// Determinism: identical state serializes to identical bytes.
	var buf2 bytes.Buffer
	if err := b.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two saves of the same state differ")
	}

	lb, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	compareBuilders(t, b, lb)
	compareGraphs(t, b.LastGraph(), lb.LastGraph())

	// A loaded builder re-serializes to the exact original bytes.
	var buf3 bytes.Buffer
	if err := lb.WriteSnapshot(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf3.Bytes()) {
		t.Fatal("save-load-save is not byte-identical")
	}
}

func TestSnapshotOpenMmap(t *testing.T) {
	b := buildEpochs(300, 2)
	path := filepath.Join(t.TempDir(), "core.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lb, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	compareGraphs(t, b.LastGraph(), lb.LastGraph())
}

// TestSnapshotContinueBuilding is the property that makes restarts real:
// a restored builder absorbing the same events as the original produces
// an equivalent next epoch — including journal diffs and copy-on-write
// chain stamps spanning the restart boundary.
func TestSnapshotContinueBuilding(t *testing.T) {
	const total = 600
	orig := buildEpochs(total, 3)
	var buf bytes.Buffer
	if err := orig.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	before := restored.LastGraph().Epoch()
	for _, b := range []*Builder{orig, restored} {
		FeedSyntheticRange(b, total, total+100, total+100)
		b.Fail("www5.dom0.tld0", errors.New("late failure"))
		b.ObserveZone("dom0.tld0", []string{"late.example"}) // dup zone: ignored
		b.FinishEpoch()
	}
	g1, g2 := orig.LastGraph(), restored.LastGraph()
	compareGraphs(t, g1, g2)
	compareBuilders(t, orig, restored)

	// The post-restart epoch diffs incrementally against the restored one.
	if !g2.JournalComplete(before) {
		t.Fatal("journal broken across the restart boundary")
	}
	if got := g2.NamesTouchedSince(before); len(got) == 0 {
		t.Fatal("no touched names across restart epoch")
	}
	if !reflect.DeepEqual(g2.NamesTouchedSince(before), g1.NamesTouchedSince(before)) {
		t.Fatal("touched journals diverge after restart")
	}
	// Unchanged chains keep their pre-restart stamps (copy-on-write held).
	var kept bool
	for c := 0; c < g2.NumChains(); c++ {
		if g2.ChainStamp(int32(c)) <= before && g2.ChainStamp(int32(c)) == g1.ChainStamp(int32(c)) {
			kept = true
		}
	}
	if !kept {
		t.Fatal("no chain kept its pre-restart stamp")
	}
}

// TestSnapshotReopenThenCommit: FinishEpoch trusts the previous epoch's
// tables and the set of hosts attached since then, which a reopened
// builder restores from disk. Reopened and uninterrupted builders fed
// the same batch with late attachments must produce identical next
// epochs — whether the snapshot was taken at a commit boundary or with
// late attachments already absorbed but not yet committed.
func TestSnapshotReopenThenCommit(t *testing.T) {
	for _, midBatch := range []bool{false, true} {
		t.Run(fmt.Sprintf("midBatch=%v", midBatch), func(t *testing.T) {
			const total = 600
			orig := buildEpochs(total, 3)
			// Publish two hosts without chains: hub.tld0 serves names
			// and reaches the late host through its NS set.
			orig.ObserveZone("hub.tld0", []string{"ns1.dom0.tld0", "ns.hub.example"})
			orig.ObserveZone("side.tld1", []string{"ns.side.example"})
			orig.Complete("www.hub.tld0", []string{"tld0", "hub.tld0"})
			orig.FinishEpoch()
			orig.TakeLateAttached()

			// The late attachments: hub.tld0's closure grows by dom1's
			// servers; side.tld1's by tld0's.
			lateA := func(b *Builder) { b.ObserveChain("ns.hub.example", []string{"tld1", "dom1.tld1"}) }
			lateB := func(b *Builder) {
				b.AttachHostChain(b.InternHost("ns.side.example"), b.InternChain([]int32{b.InternZone("tld0", nil)}))
			}
			if midBatch {
				lateA(orig)
			}
			var buf bytes.Buffer
			if err := orig.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(slices.Sorted(slices.Values(restored.attached)), slices.Sorted(slices.Values(orig.attached))) {
				t.Fatalf("attached since the last epoch: restored %v, want %v", restored.attached, orig.attached)
			}
			before := orig.LastGraph()

			var lates [2][]int32
			for i, b := range []*Builder{orig, restored} {
				if !midBatch || i == 1 {
					// The restored builder must already know about a
					// mid-batch attach; feeding it again is a no-op.
					lateA(b)
				}
				lateB(b)
				FeedSyntheticRange(b, total, total+60, total+60)
				b.FinishEpoch()
				lates[i] = b.TakeLateAttached()
			}
			g1, g2 := orig.LastGraph(), restored.LastGraph()
			compareGraphs(t, g1, g2)
			compareBuilders(t, orig, restored)
			if !reflect.DeepEqual(lates[0], lates[1]) || len(lates[0]) != 2 {
				t.Fatalf("late hosts: uninterrupted %v, reopened %v; want two", lates[0], lates[1])
			}
			if int32sEqual(before.ZoneClosure("hub.tld0"), g2.ZoneClosure("hub.tld0")) {
				t.Fatal("late attachment did not reach hub.tld0's closure")
			}
			cid, _ := g2.NameChainID("www.hub.tld0")
			if g2.ChainStamp(cid) != g2.Epoch() {
				t.Fatalf("hub chain stamp %d, want the new epoch %d", g2.ChainStamp(cid), g2.Epoch())
			}
		})
	}
}

func TestSnapshotEmptyBuilder(t *testing.T) {
	b := NewBuilder(0)
	b.FinishEpoch() // the Monitor's pre-crawl empty generation
	var buf bytes.Buffer
	if err := b.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	lb, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// An empty-store FinishEpoch does not publish a live-store graph, so
	// the restored builder faithfully has none either.
	if lb.Epoch() != 1 || lb.LastGraph() != b.LastGraph() && (lb.LastGraph() == nil) != (b.LastGraph() == nil) {
		t.Fatalf("empty builder restored wrong: epoch %d, graph %v", lb.Epoch(), lb.LastGraph())
	}
	FeedSynthetic(lb, 100)
	if g := lb.FinishEpoch(); g.NumNames() != 100 {
		t.Fatalf("post-restore epoch has %d names", g.NumNames())
	}
}

func TestSnapshotLargeIDs(t *testing.T) {
	// Exercise id widths beyond a byte so the packed chain keys and int32
	// views cover multi-byte values.
	b := NewBuilder(0)
	for i := 0; i < 300; i++ {
		z := fmt.Sprintf("zone%d", i)
		b.ObserveZone(z, []string{"ns." + z})
		b.ObserveChain("ns."+z, []string{z})
		b.Complete("name."+z, []string{z})
	}
	b.FinishEpoch()
	var buf bytes.Buffer
	if err := b.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	lb, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	compareBuilders(t, b, lb)
	compareGraphs(t, b.LastGraph(), lb.LastGraph())
}
