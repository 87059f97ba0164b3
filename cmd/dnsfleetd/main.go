// Command dnsfleetd fronts a shared-nothing fleet of dnsmonitord
// shards as one logical survey. Each shard crawls its own partition of
// the corpus against its own store; dnsfleetd periodically pulls every
// shard's snapshot (a conditional fetch — an unchanged shard costs one
// request and zero bytes), remaps the shard-local zone/host/chain ids
// into a unioned intern space, and serves the merged view through the
// same read API a single monitor exposes.
//
// Usage:
//
//	dnsfleetd -shards s0=http://h0:8053,s1=http://h1:8053,s2=http://h2:8053
//	          [-addr :8063] [-interval 30s] [-timeout 10s] [-quorum 0]
//	          [-attempts 3] [-backoff 200ms] [-retain 8] [-snapshot fleet.snap]
//
// Endpoints: the read routes shared with dnsmonitord (internal/httpapi:
// /summary, /tcb, /bottleneck, /generations, /diff) over the merged
// timeline, with /summary and each /generations entry adding "stale"
// and "stale_shards" (and "changed", the entry's changed-name count),
// and /tcb and /bottleneck adding the owning "shard". Before the first
// merge they answer 503. The router's own routes:
//
//	GET  /stats              fleet dimensions plus per-shard health
//	POST /add                whitespace-separated names in the body are
//	                         consistent-hashed to their owning shards,
//	                         fanned out to the shards' /add endpoints,
//	                         and folded into a fresh merged generation;
//	                         a body over 16 MiB answers 413
//
// SIGTERM/SIGINT drains in-flight requests, stops the merge ticker, and
// exits 0.
//
// Merge semantics: shards are fetched concurrently each round, bounded
// by -timeout. A shard that fails its fetch keeps its last merged
// contribution and the view is marked stale; if fewer than -quorum
// shards answer (0 = majority), the round aborts and the previous view
// keeps serving. A round in which no shard changed reuses the current
// generation. -snapshot persists the merged union snapshot (atomic
// rename) after every new generation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dnstrust/internal/fleet"
	"dnstrust/internal/httpapi"
)

func main() {
	addr := flag.String("addr", ":8063", "HTTP listen address")
	shardsFlag := flag.String("shards", "", "comma-separated name=url shard list (url is a dnsmonitord base, e.g. s0=http://host:8053)")
	interval := flag.Duration("interval", 30*time.Second, "merge round period")
	timeout := flag.Duration("timeout", 10*time.Second, "per-round deadline: a dead shard costs at most this long")
	quorum := flag.Int("quorum", 0, "shards that must answer for a round to commit (0 = majority)")
	attempts := flag.Int("attempts", 3, "per-shard fetch attempts per round")
	backoff := flag.Duration("backoff", 200*time.Millisecond, "first retry delay, doubling per attempt")
	retain := flag.Int("retain", 8, "merged generations kept live for /generations and /diff")
	snapFile := flag.String("snapshot", "", "persist the merged snapshot here after every new generation")
	flag.Parse()

	urls := map[string]string{}
	var shards []fleet.Shard
	for _, part := range strings.Split(*shardsFlag, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok {
			log.Fatalf("dnsfleetd: bad -shards entry %q (want name=url)", part)
		}
		url = strings.TrimRight(url, "/")
		urls[name] = url
		shards = append(shards, fleet.Shard{Name: name, Source: &fleet.HTTPSource{URL: url}})
	}
	if len(shards) == 0 {
		log.Fatal("dnsfleetd: no shards configured (use -shards s0=http://host:8053,...)")
	}

	c, err := fleet.New(shards, fleet.Config{
		Quorum:       *quorum,
		Timeout:      *timeout,
		Attempts:     *attempts,
		Backoff:      *backoff,
		Retain:       *retain,
		SnapshotFile: *snapFile,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatalf("dnsfleetd: %v", err)
	}
	srv := newServer(c, urls)

	log.Printf("merging initial fleet state from %d shards...", len(shards))
	start := time.Now()
	fv, err := c.Commit(context.Background())
	if err != nil {
		log.Fatalf("dnsfleetd: initial merge: %v", err)
	}
	log.Printf("generation %d ready: %d names, %d nameservers across %d shards (%.1fs); serving on %s",
		fv.Generation(), fv.NumNames(), fv.Survey().Graph.NumHosts(), len(shards),
		time.Since(start).Seconds(), *addr)
	if fv.Stale() {
		log.Printf("dnsfleetd: serving a partial view: stale shards %v", fv.StaleShards())
	}

	stop, ticking := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticking)
		t := time.NewTicker(*interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if _, err := c.Commit(context.Background()); err != nil {
					log.Printf("dnsfleetd: merge round failed (previous generation still serving): %v", err)
				}
			}
		}
	}()

	// SIGTERM/SIGINT: drain in-flight requests, then stop the merge
	// ticker (letting a round already under way finish) and exit.
	sigCtx, stopSig := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stopSig()
	serveErr := httpapi.Serve(sigCtx, *addr, srv.routes())
	if serveErr != nil {
		log.Printf("dnsfleetd: serve: %v", serveErr)
	}
	log.Printf("shutting down")
	close(stop)
	<-ticking
	if serveErr != nil {
		os.Exit(1)
	}
}

// server exposes one shared Coordinator. Reads answer from the latest
// merged FleetView (immutable, never blocking behind a merge round);
// /add fans out to the owning shards and then re-merges.
type server struct {
	c    *fleet.Coordinator
	ring *fleet.Ring
	urls map[string]string // shard name -> base URL, for /add fan-out
	api  *httpapi.API[*fleet.FleetView]
}

// newServer serves c's merged timeline through the shared read routes,
// each answer extended with the fleet's staleness or owning shard.
func newServer(c *fleet.Coordinator, urls map[string]string) *server {
	s := &server{c: c, ring: fleet.NewRing(c.ShardNames(), 0), urls: urls}
	s.api = &httpapi.API[*fleet.FleetView]{
		Current:       s.c.Current,
		Timeline:      s.c.Timeline,
		Between:       s.c.Between,
		SummaryFields: staleFields,
		NameFields:    func(name string, out map[string]any) { out["shard"] = s.ring.Owner(name) },
		GenerationFields: func(v *fleet.FleetView, out map[string]any) {
			out["changed"] = len(v.Changed())
			staleFields(v, out)
		},
	}
	return s
}

// staleFields adds the view's staleness to a response.
func staleFields(v *fleet.FleetView, out map[string]any) {
	out["stale"] = v.Stale()
	out["stale_shards"] = v.StaleShards()
}

// routes mounts the shared read routes plus the router's own.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	s.api.Mount(mux)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("POST /add", s.add)
	return mux
}

func (s *server) stats(w http.ResponseWriter, r *http.Request) {
	v, ok := s.api.Latest(w)
	if !ok {
		return
	}
	out := httpapi.Dimensions(v)
	staleFields(v, out)
	out["shards"] = s.c.Status()
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// addResult is one shard's answer to a /add fan-out.
type addResult struct {
	shard string
	names int
	err   error
}

// add consistent-hashes the posted names to their owning shards, fans
// the partitions out to the shards' /add endpoints concurrently, and
// re-merges. Names keep flowing to the shard that owns them, so a
// later fan-out of the same name is an incremental no-op on the shard.
func (s *server) add(w http.ResponseWriter, r *http.Request) {
	names, ok := httpapi.AddNames(w, r)
	if !ok {
		return
	}
	parts := s.ring.Assign(names)
	shardNames := s.ring.Shards()
	results := make(chan addResult, len(shardNames))
	launched := 0
	for i, p := range parts {
		if len(p) == 0 {
			continue
		}
		launched++
		go func(shard string, part []string) {
			results <- addResult{shard: shard, names: len(part), err: postAdd(r.Context(), s.urls[shard], part)}
		}(shardNames[i], p)
	}
	perShard := make(map[string]any, launched)
	failed := 0
	for i := 0; i < launched; i++ {
		res := <-results
		if res.err != nil {
			failed++
			perShard[res.shard] = map[string]any{"names": res.names, "error": res.err.Error()}
			continue
		}
		perShard[res.shard] = map[string]any{"names": res.names}
	}

	fv, err := s.c.Commit(r.Context())
	if err != nil {
		httpapi.WriteErr(w, http.StatusInternalServerError, fmt.Errorf("re-merge failed (previous generation still serving): %w", err))
		return
	}
	status := http.StatusOK
	if failed > 0 {
		// Partial fan-out: the merged view reflects what the healthy
		// shards absorbed; the caller can retry the rest.
		status = http.StatusBadGateway
	}
	httpapi.WriteJSON(w, status, map[string]any{
		"generation":    fv.Generation(),
		"added":         len(names),
		"names_total":   fv.NumNames(),
		"shards":        perShard,
		"failed_shards": failed,
		"stale":         fv.Stale(),
		"stale_shards":  fv.StaleShards(),
	})
}

// postAdd forwards one shard's partition to its /add endpoint.
func postAdd(ctx context.Context, baseURL string, names []string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/add",
		strings.NewReader(strings.Join(names, "\n")))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s/add: %s: %s", baseURL, resp.Status, strings.TrimSpace(string(snippet)))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
