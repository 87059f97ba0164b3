// Command dnsmonitord serves a monitored survey over HTTP/JSON — the
// paper's transitive-trust analyses as a continuously extendable
// service instead of a one-shot batch.
//
// Usage:
//
//	dnsmonitord [-addr :8053] [-names 20000] [-seed 1] [-workers 0] [-retain 8]
//	            [-memo-file crawl.memo] [-snapshot session.snap]
//	            [-record crawl.qlog] [-replay crawl.qlog] [-live]
//	            [-shard-name s0]
//
// On startup the daemon generates the synthetic world, crawls the
// initial corpus, and then serves the read routes shared with dnsfleetd
// (internal/httpapi: /summary, /tcb, /bottleneck, /generations, /diff)
// over the Monitor's timeline, plus its own:
//
//	GET  /audit?name=N       §5 trust-audit findings for a name
//	GET  /verdict?name=N     serving-path policy verdict (allow / flag /
//	                         refuse) from the same lock-free cache
//	                         dnstrustd consults per query; a never-seen
//	                         name answers provisionally and is queued
//	                         for a background crawl
//	GET  /stats              crawl-engine counters and generation
//	GET  /watch?since=&grow=&limit=
//	                         names whose TCB grew by >= grow hosts (or
//	                         past limit total) since generation `since`
//	GET  /snapshot           stream the session snapshot (the fleet pull
//	                         path); the generation doubles as the ETag,
//	                         so If-None-Match answers 304 when nothing
//	                         committed since the caller's last fetch
//	POST /add                whitespace-separated names in the body are
//	                         added incrementally; responds with the delta
//	                         (a body over 16 MiB answers 413, committing
//	                         nothing)
//	POST /snapshot           save the session snapshot now; responds with
//	                         {generation, bytes, seconds}
//
// -shard-name labels the monitor as one shard of a fleet: snapshots
// (files and GET /snapshot exports alike) carry the label, and a
// dnsfleetd coordinator refuses to merge a shard that answers under
// the wrong name.
//
// -snapshot makes the session durable: the epoch store is saved to the
// file atomically after the initial crawl, after every committed /add,
// and on SIGTERM (once in-flight requests have drained); at the next boot the daemon restores the last
// committed generation from it in load time — skipping the initial
// crawl entirely, with zero transport queries — and keeps extending it.
// A kill at any point, mid-save included, leaves the previous complete
// snapshot in place, never a loadable partial one.
//
// Reads are served from immutable views and never block: while an /add
// crawl is in flight, queries answer from the previous generation.
// Repeated reads are near-free — min-cut and TCB results are memoized
// per delegation chain across generations, retained generations share
// the survey's storage copy-on-write, and generation diffs examine only
// the chains that actually changed.
//
// The daemon's Internet is a transport-source composition, like
// dnssurvey's: -live crawls over real loopback sockets, -record keeps a
// byte-stable query log of every exchange (saved after the initial
// crawl and after every /add), and -replay serves the whole session —
// /add included — from a recorded log, so the daemon can monitor a
// snapshot of the past.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"dnstrust"
	"dnstrust/internal/httpapi"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
	"dnstrust/internal/verdict"
)

func main() {
	addr := flag.String("addr", ":8053", "HTTP listen address")
	names := flag.Int("names", 20000, "initial survey corpus size (paper: 593160)")
	seed := flag.Int64("seed", 1, "world generation seed")
	workers := flag.Int("workers", 0, "crawl parallelism (0 = GOMAXPROCS)")
	retain := flag.Int("retain", 8, "committed generations kept live for /generations, /diff, /watch")
	memoFile := flag.String("memo-file", "", "persist the query memo here and resume from it")
	snapshot := flag.String("snapshot", "", "persist the session snapshot here: restored at boot, saved after each crawl and on SIGTERM")
	shardName := flag.String("shard-name", "", "label this monitor as one fleet shard: snapshots and GET /snapshot exports carry the name")
	record := flag.String("record", "", "record every transport exchange into this query-log file (saved after each crawl)")
	replay := flag.String("replay", "", "serve the session from this recorded query log (strict: unrecorded queries fail)")
	live := flag.Bool("live", false, "boot the world's nameservers on loopback and crawl over real UDP/TCP sockets")
	maxTCB := flag.Int("max-tcb", 100, "/verdict flags names whose trusted computing base exceeds this many servers (-1 disables)")
	narrowCut := flag.Int("narrow-cut", 1, "/verdict flags names whose minimum delegation cut is at most this many servers (-1 disables)")
	flagOnly := flag.Bool("flag-only", false, "/verdict downgrades refusals to flags")
	verdictTTL := flag.Duration("verdict-ttl", time.Minute, "verdict cache TTL (generation commits invalidate changed names immediately)")
	flag.Parse()

	ctx := context.Background()
	opts := dnstrust.Options{Seed: *seed, Names: *names, Workers: *workers, Retain: *retain,
		MemoFile: *memoFile, SnapshotFile: *snapshot, ShardName: *shardName}
	var recLog *dnstrust.QueryLog
	if *record != "" {
		recLog = transport.NewLog()
		opts.RecordLog = recLog
	}
	if *replay != "" {
		lg := transport.NewLog()
		n, err := lg.LoadFile(*replay)
		if err != nil {
			log.Fatalf("dnsmonitord: %s: %v", *replay, err)
		}
		log.Printf("replaying %s: %d recorded questions", *replay, n)
		opts.ReplayLog = lg
	}

	log.Printf("generating world (seed %d, %d names) and crawling initial corpus...", *seed, *names)
	start := time.Now()
	world, err := dnstrust.NewWorld(opts)
	if err != nil {
		log.Fatalf("dnsmonitord: %v", err)
	}
	switch {
	case *live && *replay != "":
		// Strict replay never queries a terminal source; don't boot a
		// fleet destined only to be closed.
		log.Printf("dnsmonitord: -live ignored: strict -replay serves everything from the recording")
	case *live:
		lv, err := topology.StartLive(ctx, world.Registry)
		if err != nil {
			log.Fatalf("dnsmonitord: starting live servers: %v", err)
		}
		log.Printf("booted %d real DNS servers on loopback", lv.NumServers())
		opts.Source = transport.From(lv)
	}
	openStart := time.Now()
	m, err := dnstrust.OpenWorld(ctx, world, opts)
	if err != nil {
		log.Fatalf("dnsmonitord: %v", err)
	}
	srv := &server{m: m, recLog: recLog, recPath: *record, snapPath: *snapshot}
	// The verdict cache is the same structure dnstrustd consults on its
	// serving hot path; here it backs /verdict. Commits advance it in
	// place (evicting only changed names), and /verdict on a never-seen
	// name queues a background crawl whose commit is persisted exactly
	// like a /add.
	cache, err := verdict.NewCache(m.At().Survey(), verdict.Config{
		Policy: verdict.Policy{MaxTCB: *maxTCB, NarrowCut: *narrowCut, FlagOnly: *flagOnly},
		TTL:    *verdictTTL,
		Add: func(ctx context.Context, names ...string) error {
			if _, err := m.Add(ctx, names...); err != nil {
				return err
			}
			srv.saveRecording()
			srv.saveSnapshot()
			return nil
		},
	})
	if err != nil {
		log.Fatalf("dnsmonitord: %v", err)
	}
	m.OnCommit(func(v *dnstrust.View) { cache.Advance(v.Survey()) })
	srv.cache = cache
	v := m.At()
	if v.Generation() > 0 {
		// The snapshot restored the last committed generation; the
		// initial crawl is already paid for.
		log.Printf("snapshot: restored generation %d from %s (%d bytes, %.2fs, 0 transport queries)",
			v.Generation(), *snapshot, fileSize(*snapshot), time.Since(openStart).Seconds())
	} else {
		if v, err = m.Add(ctx, m.World().Corpus...); err != nil {
			m.Close()
			// A partial recording survives an aborted initial crawl, like
			// the query memo does.
			srv.saveRecording()
			log.Fatalf("dnsmonitord: initial crawl: %v", err)
		}
		srv.saveRecording()
		srv.saveSnapshot()
	}
	log.Printf("generation %d ready: %d names, %d nameservers (%.1fs); serving on %s",
		v.Generation(), v.NumNames(), v.Survey().Graph.NumHosts(), time.Since(start).Seconds(), *addr)

	// SIGTERM/SIGINT: drain in-flight requests, then save the snapshot
	// (Close does, when configured) and exit cleanly. The atomic save
	// means a second signal mid-save still leaves the previous snapshot
	// loadable.
	sigCtx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, os.Interrupt)
	defer stop()
	serveErr := httpapi.Serve(sigCtx, *addr, srv.routes())
	if serveErr != nil {
		log.Printf("dnsmonitord: serve: %v", serveErr)
	}
	log.Printf("saving session state and shutting down")
	shutStart := time.Now()
	cache.Close()
	if err := m.Close(); err != nil {
		log.Fatalf("dnsmonitord: shutdown: %v", err)
	}
	if *snapshot != "" {
		log.Printf("snapshot: saved generation %d to %s (%d bytes, %.2fs)",
			m.Generation(), *snapshot, fileSize(*snapshot), time.Since(shutStart).Seconds())
	}
	if serveErr != nil {
		os.Exit(1)
	}
}

// fileSize reports a file's size for log lines (0 when it cannot be
// read).
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// server exposes one shared Monitor. Handlers read from At()'s immutable
// view; /add serializes through the Monitor itself.
type server struct {
	m *dnstrust.Monitor

	// cache serves /verdict; Monitor.OnCommit keeps it advancing.
	cache *verdict.Cache

	// recLog/recPath persist the session's query recording; recMu
	// serializes saves from concurrent /add handlers.
	recLog  *dnstrust.QueryLog
	recPath string
	recMu   sync.Mutex

	// snapPath persists the session snapshot ("" = off); snapMu
	// serializes saves so concurrent /add and /snapshot handlers never
	// race on the same temp file.
	snapPath string
	snapMu   sync.Mutex
}

// routes mounts the shared read routes over the Monitor's timeline plus
// the monitor's own.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	api := &httpapi.API[*dnstrust.View]{Current: s.m.At, Timeline: s.m.Timeline, Between: s.m.BetweenContext}
	api.Mount(mux)
	mux.HandleFunc("GET /audit", s.audit)
	mux.HandleFunc("GET /verdict", s.verdict)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("GET /watch", s.watch)
	mux.HandleFunc("POST /add", s.add)
	mux.HandleFunc("POST /snapshot", s.snapshot)
	mux.HandleFunc("GET /snapshot", s.snapshotGet)
	return mux
}

// saveRecording writes the query log to disk, when recording.
func (s *server) saveRecording() {
	if s.recLog == nil {
		return
	}
	s.recMu.Lock()
	defer s.recMu.Unlock()
	//lint:allow locksafety recMu serializes concurrent saves of the same file; the query path never takes it
	if n, err := s.recLog.SaveFile(s.recPath); err != nil {
		log.Printf("dnsmonitord: recording not saved: %v", err)
	} else {
		log.Printf("recorded %d questions to %s", n, s.recPath)
	}
}

// saveSnapshot persists the session snapshot, when configured, logging
// generation, size, and timing. Callers after a committed crawl may
// ignore the result: a failure is logged, and the next commit retries.
func (s *server) saveSnapshot() (n int64, elapsed time.Duration, err error) {
	if s.snapPath == "" {
		return 0, 0, nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()
	//lint:allow locksafety snapMu exists solely to serialize snapshot writers to one file; no reader ever takes it
	n, err = s.m.SaveSnapshot(s.snapPath)
	elapsed = time.Since(start)
	if err != nil {
		log.Printf("dnsmonitord: snapshot not saved: %v", err)
		return 0, elapsed, err
	}
	log.Printf("snapshot: saved generation %d to %s (%d bytes, %.2fs)",
		s.m.Generation(), s.snapPath, n, elapsed.Seconds())
	return n, elapsed, nil
}

func (s *server) audit(w http.ResponseWriter, r *http.Request) {
	name, ok := httpapi.NameParam(w, r)
	if !ok {
		return
	}
	v := s.m.At()
	findings, err := v.Audit(name)
	if err != nil {
		httpapi.WriteErr(w, http.StatusNotFound, err)
		return
	}
	out := make([]map[string]string, 0, len(findings))
	for _, f := range findings {
		out = append(out, map[string]string{
			"severity": f.Severity.String(),
			"kind":     f.Kind.String(),
			"finding":  f.String(),
		})
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"generation": v.Generation(),
		"name":       name,
		"findings":   out,
	})
}

// verdict serves the per-name policy verdict from the shared cache. A
// hit costs two atomic loads; a never-seen name answers provisionally
// (flagged) and queues a background crawl — poll again after it commits
// for the real verdict.
func (s *server) verdict(w http.ResponseWriter, r *http.Request) {
	name, ok := httpapi.NameParam(w, r)
	if !ok {
		return
	}
	v := s.cache.Lookup(name)
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"name":        v.Name,
		"level":       v.Level.String(),
		"reasons":     v.Reasons.Strings(),
		"generation":  v.Generation,
		"tcb_size":    v.TCBSize,
		"cut":         v.Cut,
		"safe_in_cut": v.SafeInCut,
		"provisional": v.Provisional,
	})
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	v := s.m.At()
	st := v.Survey().Stats
	out := httpapi.Dimensions(v)
	out["transport_queries"] = s.m.Queries()
	out["memo_hits"] = st.Walker.MemoHits
	out["shared_walks"] = st.Walker.SharedWalks
	out["walk_seconds"] = st.WalkTime.Seconds()
	out["build_seconds"] = st.BuildTime.Seconds()
	out["verdict_cache"] = verdictStats(s.cache.Stats())
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// verdictStats flattens cache counters for the /stats payload.
func verdictStats(cs verdict.Stats) map[string]any {
	return map[string]any{
		"size":        cs.Size,
		"generation":  cs.Generation,
		"hits":        cs.Hits,
		"misses":      cs.Misses,
		"provisional": cs.Provisional,
		"evicted":     cs.Evicted,
		"flushes":     cs.Flushes,
		"stale_skips": cs.StaleSkips,
		"enqueued":    cs.Enqueued,
		"dropped":     cs.Dropped,
	}
}

// watch flags drifting names: TCB grown by at least ?grow= hosts (default
// 1) since generation ?since= (default the oldest retained), plus names
// whose TCB crossed the absolute ?limit= threshold between the
// generations.
func (s *server) watch(w http.ResponseWriter, r *http.Request) {
	tl := s.m.Timeline()
	if len(tl) == 0 {
		httpapi.WriteErr(w, http.StatusBadRequest, errors.New("no generations retained"))
		return
	}
	to := tl[len(tl)-1].Generation()
	since, err := httpapi.GenParam(r, "since", tl[0].Generation())
	if err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	grow, err := httpapi.GenParam(r, "grow", 1)
	if err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	limit, err := httpapi.GenParam(r, "limit", 0)
	if err != nil {
		httpapi.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if since > to {
		httpapi.WriteErr(w, http.StatusBadRequest, fmt.Errorf("since=%d exceeds the latest generation %d", since, to))
		return
	}
	d, err := s.m.BetweenContext(r.Context(), since, to)
	if err != nil {
		httpapi.WriteErr(w, http.StatusNotFound, err)
		return
	}
	grew := make([]map[string]any, 0)
	for _, c := range d.Grew(int(grow)) {
		grew = append(grew, map[string]any{
			"name": c.Name, "old_tcb": c.OldTCB, "new_tcb": c.NewTCB, "growth": c.Growth(),
			"tcb_added": c.TCBAdded,
		})
	}
	crossed := make([]map[string]any, 0)
	if limit > 0 {
		for _, c := range d.Changed {
			if int64(c.OldTCB) <= limit && int64(c.NewTCB) > limit {
				crossed = append(crossed, map[string]any{
					"name": c.Name, "old_tcb": c.OldTCB, "new_tcb": c.NewTCB, "limit": limit,
				})
			}
		}
	}
	// Zombie dependencies never arise within one monitored session (zone
	// cuts are first-observation-wins immutable); they surface when
	// diffing independent recordings — dnssurvey -diff / DiffLogs — so
	// the watch response does not carry a perpetually empty field.
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"since":         since,
		"to":            to,
		"min_growth":    grow,
		"grew":          grew,
		"crossed_limit": crossed,
	})
}

func (s *server) add(w http.ResponseWriter, r *http.Request) {
	names, ok := httpapi.AddNames(w, r)
	if !ok {
		return
	}
	prev := s.m.At()
	prevQueries := s.m.Queries()
	start := time.Now()
	v, err := s.m.Add(r.Context(), names...)
	if err != nil {
		httpapi.WriteErr(w, http.StatusInternalServerError, fmt.Errorf("add failed (previous generation still serving): %w", err))
		return
	}
	s.saveRecording()
	s.saveSnapshot()
	perName := make(map[string]any, len(names))
	for _, n := range names {
		if sz := v.Survey().Graph.TCBSize(n); sz >= 0 {
			perName[n] = sz
		} else if ferr, ok := v.Survey().Failed[n]; ok {
			perName[n] = "failed: " + ferr.Error()
		}
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"generation":        v.Generation(),
		"added":             len(names),
		"names_total":       v.NumNames(),
		"new_names":         v.NumNames() - prev.NumNames(),
		"new_servers":       v.Survey().Graph.NumHosts() - prev.Survey().Graph.NumHosts(),
		"transport_queries": s.m.Queries() - prevQueries,
		"seconds":           time.Since(start).Seconds(),
		"tcb_sizes":         perName,
	})
}

// snapshotGet streams the session snapshot to a fleet coordinator
// (GET /snapshot). The committed generation doubles as the ETag, so a
// coordinator's conditional refetch of an unchanged shard costs one
// request and zero snapshot bytes.
func (s *server) snapshotGet(w http.ResponseWriter, r *http.Request) {
	gen := s.m.Generation()
	etag := fmt.Sprintf(`"%d"`, gen)
	w.Header().Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	start := time.Now()
	cw := &countingWriter{w: w}
	if err := s.m.WriteSnapshot(cw); err != nil {
		// The status line is already out; log and cut the stream short
		// (the coordinator sees a truncated container and retries).
		log.Printf("dnsmonitord: snapshot not served: %v", err)
		return
	}
	log.Printf("snapshot: served generation %d (%d bytes, %.2fs)",
		gen, cw.n, time.Since(start).Seconds())
}

// countingWriter sizes the streamed snapshot for the serve log line.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// snapshot saves the session snapshot on demand (POST /snapshot).
func (s *server) snapshot(w http.ResponseWriter, r *http.Request) {
	if s.snapPath == "" {
		httpapi.WriteErr(w, http.StatusBadRequest, errors.New("daemon started without -snapshot"))
		return
	}
	n, elapsed, err := s.saveSnapshot()
	if err != nil {
		httpapi.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"generation": s.m.Generation(),
		"bytes":      n,
		"seconds":    elapsed.Seconds(),
		"path":       s.snapPath,
	})
}
