package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dnstrust"
	"dnstrust/internal/fleet"
	"dnstrust/internal/snapshot"
	"dnstrust/internal/topology"
)

var fleetShardNames = [...]string{"s0", "s1", "s2"}

// fleetShard is one dnsmonitord shard: a Monitor labelled with its
// shard name, serving GET /snapshot over loopback HTTP.
type fleetShard struct {
	name string
	mon  *dnstrust.Monitor
	srv  *http.Server
	url  string
	done chan struct{}
	ft   *fleetTrace
	idx  int
}

// snapshotGet is dnsmonitord's GET /snapshot: the committed generation
// is the ETag, and a matching If-None-Match costs no snapshot bytes.
func (sh *fleetShard) snapshotGet(w http.ResponseWriter, r *http.Request) {
	gen := sh.mon.Generation()
	etag := fmt.Sprintf(`"%d"`, gen)
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	id := int32(0)
	if sh.ft != nil {
		id = sh.ft.begin("dnstrust.Monitor.WriteSnapshot", sh.ft.fetchSpan[sh.idx].Load())
	}
	t0 := time.Now()
	// A failed write cuts the stream short; the coordinator sees a
	// truncated container, and the round's checks report it.
	_ = sh.mon.WriteSnapshot(w)
	if id != 0 {
		sh.ft.tr.end(id)
		sh.ft.mu.Lock()
		sh.ft.writes = append(sh.ft.writes, time.Since(t0))
		sh.ft.mu.Unlock()
	}
}

// fleetTrace is the span context of the traced fleet round in flight,
// shared with the fetch goroutines and the shard handlers.
type fleetTrace struct {
	tr        *tracer
	on        atomic.Bool
	parent    atomic.Int32 // the round's Coordinator.Commit span
	op        atomic.Int32
	fetchSpan [len(fleetShardNames)]atomic.Int32

	mu                  sync.Mutex
	round               roundFetches
	writes, reads, decs samples
	snapBytes           samples
}

// roundFetches is what one round's fetches cost, per shard.
type roundFetches struct {
	fetch, read, decode [len(fleetShardNames)]time.Duration
	bytes               int64
}

func (ft *fleetTrace) begin(name string, parent int32) int32 {
	if ft == nil || !ft.on.Load() {
		return 0
	}
	return ft.tr.begin(name, parent, ft.op.Load())
}

// tracedSource fetches like fleet.HTTPSource, but reads the body before
// decoding it so that the transfer, snapshot.Read and DecodeEpoch get
// spans of their own.
type tracedSource struct {
	url    string
	client *http.Client
	ft     *fleetTrace
	idx    int
}

func (s *tracedSource) Fetch(ctx context.Context, haveGen int64) (*fleet.Epoch, error) {
	ft := s.ft
	parent := ft.parent.Load()
	fid := ft.begin("fleet.fetch", parent)
	ft.fetchSpan[s.idx].Store(fid)
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/snapshot", nil)
	if err != nil {
		return nil, err
	}
	if haveGen >= 0 {
		req.Header.Set("If-None-Match", fmt.Sprintf(`"%d"`, haveGen))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fetch %s: %w", s.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		ft.tr.end(fid)
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetch %s: unexpected status %s", s.url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	ft.tr.end(fid)
	fetch := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("fetch %s: %w", s.url, err)
	}
	rid := ft.begin("snapshot.Read", parent)
	t1 := time.Now()
	f, err := snapshot.Read(bytes.NewReader(body))
	read := time.Since(t1)
	ft.tr.end(rid)
	if err != nil {
		return nil, fmt.Errorf("fetch %s: %w", s.url, err)
	}
	did := ft.begin("fleet.DecodeEpoch", parent)
	t2 := time.Now()
	ep, err := fleet.DecodeEpoch(f)
	dec := time.Since(t2)
	ft.tr.end(did)
	if fid != 0 {
		ft.mu.Lock()
		r := &ft.round
		r.fetch[s.idx], r.read[s.idx], r.decode[s.idx] = fetch, read, dec
		r.bytes += int64(len(body))
		ft.reads, ft.decs = append(ft.reads, read), append(ft.decs, dec)
		ft.snapBytes = append(ft.snapBytes, time.Duration(len(body)))
		ft.mu.Unlock()
	}
	return ep, err
}

// fleetSys is the dnsfleetd round: three shard monitors partitioned by
// the ring and a coordinator pulling their snapshots over HTTP.
type fleetSys struct {
	world   *topology.World
	ring    *fleet.Ring
	shards  []*fleetShard
	coord   *fleet.Coordinator
	client  *http.Client
	queries atomic.Int64
	held    []string
	ft      *fleetTrace
}

func setupFleet(ctx context.Context, cfg config, tr *tracer) (*fleetSys, error) {
	opts := dnstrust.Options{Seed: worldSeed, Names: cfg.names}
	world, err := dnstrust.NewWorld(opts)
	if err != nil {
		return nil, err
	}
	s := &fleetSys{world: world, ring: fleet.NewRing(fleetShardNames[:], 0),
		client: &http.Client{Transport: &http.Transport{}}}
	if tr != nil {
		s.ft = &fleetTrace{tr: tr}
	}
	var resident []string
	resident, s.held = splitCorpus(cfg.seed, world.Corpus, cfg)
	parts := s.ring.Assign(resident)
	var shards []fleet.Shard
	for i, name := range s.ring.Shards() {
		o := opts
		o.ShardName = name
		o.Source = countedSource(world, &s.queries)
		mon, err := dnstrust.OpenWorld(ctx, world, o)
		if err != nil {
			return nil, s.close(err)
		}
		sh := &fleetShard{name: name, mon: mon, done: make(chan struct{}), ft: s.ft, idx: i}
		s.shards = append(s.shards, sh)
		if _, err := mon.Add(ctx, parts[i]...); err != nil {
			return nil, s.close(fmt.Errorf("shard %s initial crawl: %w", name, err))
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, s.close(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /snapshot", sh.snapshotGet)
		sh.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		sh.url = "http://" + ln.Addr().String()
		go func() {
			defer close(sh.done)
			_ = sh.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
		}()
		var src fleet.Source = &fleet.HTTPSource{URL: sh.url, Client: s.client}
		if s.ft != nil {
			src = &tracedSource{url: sh.url, client: s.client, ft: s.ft, idx: i}
		}
		shards = append(shards, fleet.Shard{Name: name, Source: src})
	}
	// dnsfleetd's flag defaults.
	s.coord, err = fleet.New(shards, fleet.Config{Timeout: 10 * time.Second, Attempts: 3,
		Backoff: 200 * time.Millisecond, Retain: 8})
	if err != nil {
		return nil, s.close(err)
	}
	fv, err := s.coord.Commit(ctx)
	if err != nil {
		return nil, s.close(fmt.Errorf("initial merge: %w", err))
	}
	if err := s.check(fv, 0, nil); err != nil {
		return nil, s.close(fmt.Errorf("initial merge: %w", err))
	}
	fv.Summary()
	return s, nil
}

// check verifies a merged generation: it is newer than prevGen, no
// shard is stale, its name count is the union of the shards' names, and
// every surveyed name of the batch is served.
func (s *fleetSys) check(fv *fleet.FleetView, prevGen int64, batch []string) error {
	union := 0
	for _, sh := range s.shards {
		union += sh.mon.At().NumNames() // the ring partitions names, so shards are disjoint
	}
	switch {
	case fv != s.coord.Current():
		return errors.New("Commit's view is not the current one")
	case fv.Generation() <= prevGen:
		return fmt.Errorf("generation %d after %d", fv.Generation(), prevGen)
	case fv.Stale():
		return fmt.Errorf("stale shards %v", fv.StaleShards())
	case fv.NumNames() != union:
		return fmt.Errorf("merged view has %d names, shards hold %d", fv.NumNames(), union)
	}
	for _, n := range batch {
		owner := s.shards[s.ring.OwnerIndex(n)].mon.At()
		if _, failed := owner.Survey().Failed[n]; failed {
			continue
		}
		if _, err := fv.TCB(n); err != nil {
			return fmt.Errorf("merged view does not serve %s: %w", n, err)
		}
	}
	return nil
}

func (s *fleetSys) close(cause error) error {
	errs := []error{cause}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, sh := range s.shards {
		if sh.srv != nil {
			errs = append(errs, sh.srv.Shutdown(ctx))
			<-sh.done
		}
	}
	s.client.CloseIdleConnections()
	for _, sh := range s.shards {
		errs = append(errs, sh.mon.Close())
	}
	return errors.Join(errs...)
}

func runFleet(ctx context.Context, cfg config, rep *report) error {
	var s *fleetSys
	for i := 0; i < cfg.setupReps; i++ {
		if s != nil {
			if err := s.close(nil); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = setupFleet(ctx, cfg, rep.tr); err != nil {
			return err
		}
		rep.setup = append(rep.setup, time.Since(t0))
	}
	defer s.close(nil)
	tr, ft := rep.tr, s.ft

	rt0, cpu0 := markRuntime(), cpuTime()
	var lat, tracedLat, bareLat, merge, summ samples
	var slowestAdd, walk, finish, slowestFetch, union, roundBytes samples
	var added, queried, memoHits, memoQueries int64
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for i := 0; time.Now().Before(deadline) && (i+1)*cfg.batch <= len(s.held); i++ {
		batch := s.held[i*cfg.batch : (i+1)*cfg.batch]
		parts := s.ring.Assign(batch)
		on := tr != nil && i%2 == 0
		op := int32(i + 1)
		root := int32(0)
		if on {
			root = tr.begin("round", 0, op)
		}
		prevGen := s.coord.Generation()
		q0 := s.queries.Load()
		t0 := time.Now()

		type addResult struct {
			v    *dnstrust.View
			prev *dnstrust.View
			d    time.Duration
			err  error
		}
		res := make([]addResult, len(s.shards))
		var wg sync.WaitGroup
		for j, part := range parts {
			if len(part) == 0 {
				continue
			}
			wg.Add(1)
			go func(j int, part []string) {
				defer wg.Done()
				sh := s.shards[j]
				id := int32(0)
				if on {
					id = tr.begin("dnstrust.Monitor.Add", root, op)
				}
				a0 := time.Now()
				prev := sh.mon.At()
				v, err := sh.mon.Add(ctx, part...)
				d := time.Since(a0)
				tr.end(id)
				if on && err == nil {
					st := v.Survey().Stats
					tr.add("crawler.walk", id, op, a0, st.WalkTime)
					tr.add("core.FinishEpoch", id, op, a0.Add(st.WalkTime), st.BuildTime)
				}
				res[j] = addResult{v: v, prev: prev, d: d, err: err}
			}(j, part)
		}
		wg.Wait()
		var slowest time.Duration
		addFailed := false
		for j, r := range res {
			if len(parts[j]) == 0 {
				continue
			}
			if r.err != nil {
				rep.fail("round %d: shard %s Add: %v", i+1, s.shards[j].name, r.err)
				addFailed = true
				continue
			}
			st, pst := r.v.Survey().Stats, r.prev.Survey().Stats
			memoHits += st.Walker.MemoHits - pst.Walker.MemoHits
			memoQueries += st.Walker.Queries - pst.Walker.Queries
			if on {
				slowest = max(slowest, r.d)
				walk, finish = append(walk, st.WalkTime), append(finish, st.BuildTime)
			}
		}
		if addFailed {
			tr.end(root)
			continue
		}

		cid := int32(0)
		if on {
			cid = tr.begin("fleet.Coordinator.Commit", root, op)
			ft.mu.Lock()
			ft.round = roundFetches{}
			ft.mu.Unlock()
			ft.parent.Store(cid)
			ft.op.Store(op)
		}
		if ft != nil {
			ft.on.Store(on)
		}
		m0 := time.Now()
		fv, err := s.coord.Commit(ctx)
		md := time.Since(m0)
		tr.end(cid)
		d := time.Since(t0)
		tr.end(root)
		if ft != nil {
			ft.on.Store(false)
		}
		if err != nil {
			rep.fail("round %d: Commit: %v", i+1, err)
			continue
		}
		if err := s.check(fv, prevGen, batch); err != nil {
			rep.fail("round %d: %v", i+1, err)
			continue
		}
		rep.ok()
		lat, merge = append(lat, d), append(merge, md)
		added += int64(len(batch))
		queried += s.queries.Load() - q0
		if on {
			tracedLat = append(tracedLat, d)
			slowestAdd = append(slowestAdd, slowest)
			ft.mu.Lock()
			r := ft.round
			var slowFetch, slowPipe time.Duration
			for j := range r.fetch {
				slowFetch = max(slowFetch, r.fetch[j])
				slowPipe = max(slowPipe, r.fetch[j]+r.read[j]+r.decode[j])
			}
			slowestFetch = append(slowestFetch, slowFetch)
			union = append(union, md-slowPipe)
			roundBytes = append(roundBytes, time.Duration(r.bytes))
			ft.mu.Unlock()
		} else if tr != nil {
			bareLat = append(bareLat, d)
		}

		// dnsfleetd readers ask the merged view for its headline numbers;
		// time the first Summary of each new generation.
		sid := int32(0)
		if on {
			sid = tr.begin("fleet.FleetView.Summary", 0, op)
		}
		s0 := time.Now()
		fv.Summary()
		summ = append(summ, time.Since(s0))
		tr.end(sid)
	}
	elapsed := time.Since(start)
	cpu, rt1 := cpuTime()-cpu0, markRuntime()
	if len(lat) < 100 {
		rep.note("only %d rounds ran; p90 rests on fewer than ten samples beyond it", len(lat))
	}
	rep.finish(len(lat), elapsed, cpu, lat)
	rep.note("fleet: merge (Coordinator.Commit) p50 %.2f ms, first Summary p50 %.2f ms over %d rounds",
		ms(merge.median()), ms(summ.median()), len(merge))

	l := rep.layer
	runtimeLayer(l, rt0, rt1, len(lat))
	l["core.bytes_per_name"] = float64(liveHeapBytes()) / float64(max(s.coord.Current().NumNames(), 1))
	if added > 0 {
		l["transport.queries_per_added_name"] = float64(queried) / float64(added)
	}
	if t := memoHits + memoQueries; t > 0 {
		l["crawler.memo_hit_ratio"] = float64(memoHits) / float64(t)
	}
	l["analysis.summary_ms"] = ms(summ.median())
	if tr == nil {
		return nil
	}
	l["dnstrust.add_ms"] = ms(slowestAdd.median())
	l["dnstrust.add_self_ms"] = ms(tr.selfOf("dnstrust.Monitor.Add").median())
	l["crawler.walk_ms"] = ms(walk.median())
	l["core.finish_ms"] = ms(finish.median())
	l["fleet.fetch_ms"] = ms(slowestFetch.median())
	l["fleet.union_ms"] = ms(union.median())
	l["fleet.bytes_per_round"] = float64(roundBytes.median())
	ft.mu.Lock()
	l["fleet.decode_ms"] = ms(ft.decs.median())
	l["snapshot.read_ms"] = ms(ft.reads.median())
	l["snapshot.write_ms"] = ms(ft.writes.median())
	l["snapshot.bytes"] = float64(ft.snapBytes.median())
	ft.mu.Unlock()
	rep.note("fleet round blocking steps (p50): slowest shard add %.2f + slowest fetch %.2f + union %.2f ms; untraced round p50 %.2f ms",
		ms(slowestAdd.median()), ms(slowestFetch.median()), ms(union.median()), ms(bareLat.median()))
	rep.note("tracing overhead: traced round p50 %.2f ms - bare round p50 %.2f ms = %.2f ms (%d traced, %d bare)",
		ms(tracedLat.median()), ms(bareLat.median()), ms(tracedLat.median()-bareLat.median()), len(tracedLat), len(bareLat))
	return nil
}
