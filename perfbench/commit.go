package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dnstrust"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
	"dnstrust/internal/verdict"
)

// readPause spaces the commit workload's point reads. A reader that
// never paused would hold one of the two vCPUs the writer's crawl also
// uses; pausing keeps it a steady fraction of a core.
const readPause = time.Millisecond

// splitCorpus holds back ops*batch names of the corpus, to be
// committed in batches, and returns them with the resident rest. Which
// names are resident is fixed by worldSeed, because the cost of a
// commit follows the resident store; the workload seed only orders the
// held-back names into batches.
func splitCorpus(seed int64, corpus []string, cfg config) (resident, held []string) {
	order := append([]string(nil), corpus...)
	rand.New(rand.NewSource(worldSeed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	cut := max(len(order)-cfg.ops*cfg.batch, 1)
	resident, held = order[:cut], order[cut:]
	rand.New(rand.NewSource(seed)).Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	return resident, held
}

// countedSource is the world's in-memory Internet under a
// transport.Trace middleware that counts every query a crawl issues.
func countedSource(world *topology.World, n *atomic.Int64) transport.Source {
	return transport.Chain(world.Registry.Source(),
		transport.Trace(func(netip.Addr, string, dnswire.Type) { n.Add(1) }))
}

// commitSys is the dnsmonitord -snapshot write path: a resident
// Monitor, the verdict cache its commits advance, and the snapshot file
// every commit is made durable in.
type commitSys struct {
	world    *topology.World
	mon      *dnstrust.Monitor
	cache    *verdict.Cache
	dir      string
	snapPath string
	queries  atomic.Int64

	held []string

	// hookParent and hookOp are the span context of a traced Add in
	// flight (0 when untraced); the OnCommit hook runs synchronously
	// inside Add on the writer goroutine.
	hookParent, hookOp int32
	hookTr             *tracer
}

func setupCommit(ctx context.Context, cfg config) (*commitSys, error) {
	opts := dnstrust.Options{Seed: worldSeed, Names: cfg.names}
	world, err := dnstrust.NewWorld(opts)
	if err != nil {
		return nil, err
	}
	s := &commitSys{world: world}
	if s.dir, err = os.MkdirTemp(cfg.workdir, "commit-"); err != nil {
		return nil, err
	}
	s.snapPath = filepath.Join(s.dir, "session.snap")
	opts.SnapshotFile = s.snapPath
	opts.Source = countedSource(world, &s.queries)
	if s.mon, err = dnstrust.OpenWorld(ctx, world, opts); err != nil {
		return nil, s.close(err)
	}
	s.cache, err = verdict.NewCache(s.mon.At().Survey(), verdict.Config{
		Policy: verdict.Policy{MaxTCB: 100, NarrowCut: 1},
		TTL:    time.Minute,
	})
	if err != nil {
		return nil, s.close(err)
	}
	s.mon.OnCommit(func(v *dnstrust.View) {
		id := int32(0)
		if s.hookParent != 0 {
			id = s.hookTr.begin("verdict.Cache.Advance", s.hookParent, s.hookOp)
		}
		s.cache.Advance(v.Survey())
		s.hookTr.end(id)
	})
	var resident []string
	resident, s.held = splitCorpus(cfg.seed, world.Corpus, cfg)
	v, err := s.mon.Add(ctx, resident...)
	if err != nil {
		return nil, s.close(fmt.Errorf("initial crawl: %w", err))
	}
	if _, err := s.mon.SaveSnapshot(s.snapPath); err != nil {
		return nil, s.close(err)
	}
	// Warm-up: the whole-corpus analyses and a verdict for every
	// resident name, so the timed phase starts from served caches.
	v.Summary()
	if _, err := v.Bottlenecks(ctx); err != nil {
		return nil, s.close(err)
	}
	for _, n := range resident {
		s.cache.Lookup(n)
	}
	return s, nil
}

func (s *commitSys) close(cause error) error {
	errs := []error{cause}
	if s.cache != nil {
		errs = append(errs, s.cache.Close())
	}
	if s.mon != nil {
		errs = append(errs, s.mon.Close())
	}
	if s.dir != "" {
		errs = append(errs, os.RemoveAll(s.dir))
	}
	return errors.Join(errs...)
}

// committedNames is the set of names the reader may ask for: the
// resident half plus every batch committed so far.
type committedNames struct {
	mu   sync.Mutex
	all  []string
	last []string
}

func (c *committedNames) add(batch []string) {
	c.mu.Lock()
	c.all = append(c.all, batch...)
	c.last = batch
	c.mu.Unlock()
}

// pick returns a name just committed half of the time and any committed
// name otherwise.
func (c *committedNames) pick(rng *rand.Rand) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.last) > 0 && rng.Intn(2) == 0 {
		return c.last[rng.Intn(len(c.last))]
	}
	return c.all[rng.Intn(len(c.all))]
}

func runCommit(ctx context.Context, cfg config, rep *report) error {
	var s *commitSys
	for i := 0; i < cfg.setupReps; i++ {
		if s != nil {
			if err := s.close(nil); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = setupCommit(ctx, cfg); err != nil {
			return err
		}
		rep.setup = append(rep.setup, time.Since(t0))
	}
	defer s.close(nil)
	tr := rep.tr
	s.hookTr = tr

	names := &committedNames{all: s.mon.At().Names()}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rd readerStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.reader(cfg, rep, names, stop, &rd)
	}()

	cs0 := s.cache.Stats()
	rt0, cpu0 := markRuntime(), cpuTime()
	var lat, tracedLat, bareLat, walk, finish, add, write samples
	var added, queried int64
	var memoHits, memoQueries int64
	var snapBytes int64
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for i := 0; time.Now().Before(deadline) && (i+1)*cfg.batch <= len(s.held); i++ {
		batch := s.held[i*cfg.batch : (i+1)*cfg.batch]
		give := batch
		if cfg.dropName {
			give = batch[:len(batch)-1]
		}
		on := tr != nil && i%2 == 0
		op := int32(i + 1)
		prev := s.mon.At()
		q0 := s.queries.Load()
		t0 := time.Now()
		var root, addID int32
		s.hookParent, s.hookOp = 0, 0
		if on {
			root = tr.begin("commit", 0, op)
			addID = tr.begin("dnstrust.Monitor.Add", root, op)
			s.hookParent, s.hookOp = addID, op
		}
		v, err := s.mon.Add(ctx, give...)
		addDur := tr.end(addID)
		if err != nil {
			rep.fail("commit %d: Add: %v", i+1, err)
			continue
		}
		st := v.Survey().Stats
		if on {
			tr.add("crawler.walk", addID, op, t0, st.WalkTime)
			tr.add("core.FinishEpoch", addID, op, t0.Add(st.WalkTime), st.BuildTime)
			add = append(add, addDur)
			walk, finish = append(walk, st.WalkTime), append(finish, st.BuildTime)
		}
		w := int32(0)
		if on {
			w = tr.begin("dnstrust.Monitor.SaveSnapshot", root, op)
		}
		ws := time.Now()
		n, err := s.mon.SaveSnapshot(s.snapPath)
		wd := time.Since(ws)
		tr.end(w)
		d := time.Since(t0)
		tr.end(root)
		if err != nil {
			rep.fail("commit %d: snapshot: %v", i+1, err)
			continue
		}
		if on {
			write = append(write, wd)
			tracedLat = append(tracedLat, d)
		} else if tr != nil {
			bareLat = append(bareLat, d)
		}
		snapBytes = n
		lat = append(lat, d)
		added += int64(len(give))
		queried += s.queries.Load() - q0
		memoHits += st.Walker.MemoHits - prev.Survey().Stats.Walker.MemoHits
		memoQueries += st.Walker.Queries - prev.Survey().Stats.Walker.Queries

		// A commit is correct when it mints exactly the next generation,
		// that generation is what At serves, and every name of the batch
		// is either surveyed or recorded as failed.
		failedInBatch := 0
		for _, n := range batch {
			if _, ok := v.Survey().Failed[n]; ok {
				failedInBatch++
			}
		}
		switch {
		case v.Generation() != prev.Generation()+1:
			rep.fail("commit %d: generation %d after %d", i+1, v.Generation(), prev.Generation())
		case s.mon.At().Generation() != v.Generation():
			rep.fail("commit %d: At serves generation %d, Add returned %d", i+1, s.mon.At().Generation(), v.Generation())
		case v.NumNames()-prev.NumNames() != len(batch)-failedInBatch:
			rep.fail("commit %d: %d names added, batch holds %d (%d failed)", i+1, v.NumNames()-prev.NumNames(), len(batch), failedInBatch)
		default:
			rep.ok()
		}
		var surveyed []string
		for _, n := range give {
			if _, ok := v.Survey().Failed[n]; !ok {
				surveyed = append(surveyed, n)
			}
		}
		names.add(surveyed)
	}
	elapsed := time.Since(start)
	cpu, rt1 := cpuTime()-cpu0, markRuntime()
	cs1 := s.cache.Stats()
	close(stop)
	wg.Wait()
	if len(lat) < 100 {
		rep.note("only %d commits ran; p90 rests on fewer than ten samples beyond it", len(lat))
	}
	rep.finish(len(lat), elapsed, cpu, lat)

	// The last snapshot must decode and reopen at the final generation.
	final := s.mon.At()
	rs := time.Now()
	f, err := os.Open(s.snapPath)
	if err != nil {
		return err
	}
	_, rerr := snapshot.Read(f)
	readDur := time.Since(rs)
	f.Close()
	if rerr != nil {
		rep.fail("last snapshot does not decode: %v", rerr)
	} else if err := reopenCheck(ctx, s.world, cfg, s.snapPath, final); err != nil {
		rep.fail("%v", err)
	} else {
		rep.ok()
	}

	l := rep.layer
	runtimeLayer(l, rt0, rt1, len(lat))
	l["core.bytes_per_name"] = float64(liveHeapBytes()) / float64(max(final.NumNames(), 1))
	if d := (cs1.Hits - cs0.Hits) + (cs1.Misses - cs0.Misses); d > 0 {
		l["verdict.hit_ratio"] = float64(cs1.Hits-cs0.Hits) / float64(d)
	}
	if len(lat) > 0 {
		l["verdict.evicted_per_commit"] = float64(cs1.Evicted-cs0.Evicted) / float64(len(lat))
	}
	if added > 0 {
		l["transport.queries_per_added_name"] = float64(queried) / float64(added)
	}
	if t := memoHits + memoQueries; t > 0 {
		l["crawler.memo_hit_ratio"] = float64(memoHits) / float64(t)
	}
	if tr == nil {
		return nil
	}
	adv := tr.durations("verdict.Cache.Advance")
	l["verdict.advance_ms"] = ms(adv.median())
	l["crawler.walk_ms"] = ms(walk.median())
	l["core.finish_ms"] = ms(finish.median())
	l["dnstrust.add_ms"] = ms(add.median())
	l["dnstrust.add_self_ms"] = ms(tr.selfOf("dnstrust.Monitor.Add").median())
	l["snapshot.write_ms"] = ms(write.median())
	l["snapshot.bytes"] = float64(snapBytes)
	l["snapshot.read_ms"] = ms(readDur)
	l["dnstrust.tcb_us"] = us(rd.tcb.median())
	l["analysis.bottleneck_us"] = us(rd.bottleneck.median())
	l["verdict.lookup_ns"] = ns(rd.lookup.median())
	l["verdict.miss_us"] = us(rd.miss.median())
	l["analysis.summary_ms"] = ms(rd.summary.median())
	rep.counts["reads"], rep.counts["summaries"], rep.counts["verdict_misses"] = len(rd.tcb), len(rd.summary), len(rd.miss)

	steps := walk.median() + finish.median() + adv.median() + write.median()
	bare := bareLat.median()
	rep.note("commit blocking steps (p50 self): walk %.2f + finish %.2f + advance %.2f + snapshot write %.2f = %.2f ms; untraced commit p50 %.2f ms; residual %.2f ms",
		ms(walk.median()), ms(finish.median()), ms(adv.median()), ms(write.median()), ms(steps), ms(bare), ms(bare-steps))
	rep.note("tracing overhead: traced commit p50 %.2f ms - bare commit p50 %.2f ms = %.2f ms (%d traced, %d bare)",
		ms(tracedLat.median()), ms(bare), ms(tracedLat.median()-bare), len(tracedLat), len(bareLat))
	return nil
}

// reopenCheck opens a fresh session from the snapshot and requires it
// to resume at the final generation with every name.
func reopenCheck(ctx context.Context, world *topology.World, cfg config, path string, final *dnstrust.View) error {
	m, err := dnstrust.OpenWorld(ctx, world, dnstrust.Options{Seed: worldSeed, Names: cfg.names, SnapshotFile: path})
	if err != nil {
		return fmt.Errorf("last snapshot does not reopen: %w", err)
	}
	v := m.At()
	err = m.Close()
	if v.Generation() != final.Generation() || v.NumNames() != final.NumNames() {
		return fmt.Errorf("reopened snapshot serves generation %d with %d names, want %d with %d",
			v.Generation(), v.NumNames(), final.Generation(), final.NumNames())
	}
	return err
}

type readerStats struct {
	tcb, bottleneck, lookup, miss, summary samples
}

// reader issues point reads until stop closes: TCB, Bottleneck and the
// verdict of a committed name, half of them names just committed. On
// each new generation it first times the view's Summary.
func (s *commitSys) reader(cfg config, rep *report, names *committedNames, stop <-chan struct{}, rd *readerStats) {
	tr := rep.tr
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	lastGen := int64(-1)
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		name := names.pick(rng)
		v := s.mon.At()
		on := tr != nil && i%2 == 0
		op := int32(-(i + 1)) // reads number their ops below zero, commits above
		if g := v.Generation(); g != lastGen {
			lastGen = g
			id := int32(0)
			if on {
				id = tr.begin("dnstrust.View.Summary", 0, op)
			}
			t0 := time.Now()
			if sm := v.Summary(); sm == nil {
				rep.fail("generation %d: nil Summary", g)
			}
			tr.end(id)
			if on {
				rd.summary = append(rd.summary, time.Since(t0))
			}
		}
		span := func(name string, parent int32) int32 {
			if !on {
				return 0
			}
			return tr.begin(name, parent, op)
		}
		root := span("read", 0)
		t := span("dnstrust.View.TCB", root)
		tcb, err := v.TCB(name)
		dt := tr.end(t)
		b := span("dnstrust.View.Bottleneck", root)
		cut, berr := v.Bottleneck(name)
		db := tr.end(b)
		var m0 uint64
		if on {
			m0 = s.cache.Stats().Misses
		}
		lk := span("verdict.Cache.Lookup", root)
		vd := s.cache.Lookup(name)
		dl := tr.end(lk)
		tr.end(root)
		if on {
			rd.tcb, rd.bottleneck = append(rd.tcb, dt), append(rd.bottleneck, db)
			if s.cache.Stats().Misses != m0 {
				rd.miss = append(rd.miss, dl)
			} else {
				rd.lookup = append(rd.lookup, dl)
			}
		}
		switch {
		case err != nil || len(tcb) == 0:
			rep.fail("read %s at generation %d: TCB %v, err %v", name, v.Generation(), tcb, err)
		case berr != nil || cut == nil:
			rep.fail("read %s at generation %d: Bottleneck err %v", name, v.Generation(), berr)
		case vd == nil || vd.Provisional:
			rep.fail("read %s at generation %d: verdict is provisional", name, v.Generation())
		default:
			rep.ok()
		}
		time.Sleep(readPause)
	}
}
