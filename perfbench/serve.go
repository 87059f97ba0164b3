package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"sync/atomic"
	"time"

	"dnstrust"
	"dnstrust/internal/dnsserver"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/proxy"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
	"dnstrust/internal/verdict"
)

type handler = dnsserver.Handler

const (
	// serveWindow is the number of queries the closed loop keeps
	// outstanding: one per vCPU of the 2-vCPU machine the bounds were
	// set on, so both cores are busy without queueing behind each other.
	serveWindow = 2
	// zipfS is the popularity skew of the query stream.
	zipfS = 1.1
	// lostAfter is how long a query may go unanswered before it counts
	// as lost.
	lostAfter = time.Second
)

// serveSys is the dnstrustd read path: a crawled Monitor, the verdict
// cache it advances, the proxy and its UDP server.
type serveSys struct {
	world    *topology.World
	upstream transport.Source
	mon      *dnstrust.Monitor
	cache    *verdict.Cache
	proxy    *proxy.Proxy
	srv      *dnsserver.Server

	names   []string
	queries [][]byte // packed A query per corpus name, ID 0
	refs    [][]byte // packed reply proxy.ServeDNS gives in process, ID 0
	refused []bool
}

// setupServe builds the read path the way dnstrustd does, then warms it
// by serving every corpus name once in process. Those replies are the
// references the UDP replies are checked against.
func setupServe(ctx context.Context, cfg config) (*serveSys, error) {
	opts := dnstrust.Options{Seed: worldSeed, Names: cfg.names}
	world, err := dnstrust.NewWorld(opts)
	if err != nil {
		return nil, err
	}
	s := &serveSys{world: world, upstream: world.Registry.Source()}
	opts.Source = s.upstream
	if s.mon, err = dnstrust.OpenWorld(ctx, world, opts); err != nil {
		return nil, err
	}
	s.cache, err = verdict.NewCache(s.mon.At().Survey(), verdict.Config{
		Policy:   verdict.Policy{MaxTCB: 100, NarrowCut: 1},
		TTL:      time.Minute,
		MaxQueue: 1024,
		Add: func(ctx context.Context, names ...string) error {
			_, err := s.mon.Add(ctx, names...)
			return err
		},
	})
	if err != nil {
		return nil, s.close(err)
	}
	s.mon.OnCommit(func(v *dnstrust.View) { s.cache.Advance(v.Survey()) })
	if _, err := s.mon.Add(ctx, world.Corpus...); err != nil {
		return nil, s.close(fmt.Errorf("initial crawl: %w", err))
	}
	r, err := resolver.New(s.upstream, resolver.Config{Roots: world.Registry.RootServers()})
	if err != nil {
		return nil, s.close(err)
	}
	// dnstrustd logs every refusal; the benchmark keeps the logging
	// calls but discards their output.
	s.proxy, err = proxy.New(proxy.Config{Resolver: r, Cache: s.cache, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		return nil, s.close(err)
	}
	var h handler = s.proxy
	if cfg.wrapHandler != nil {
		h = cfg.wrapHandler(h)
	}
	if s.srv, err = dnsserver.Start(ctx, "127.0.0.1:0", dnsserver.Config{Handler: h}); err != nil {
		return nil, s.close(err)
	}

	s.names = world.Corpus
	s.queries = make([][]byte, len(s.names))
	s.refs = make([][]byte, len(s.names))
	s.refused = make([]bool, len(s.names))
	for i, n := range s.names {
		q := dnswire.NewQuery(0, n, dnswire.TypeA, dnswire.ClassINET)
		if s.queries[i], err = q.Pack(); err != nil {
			return nil, s.close(err)
		}
		resp := s.proxy.ServeDNS(ctx, q)
		s.refused[i] = resp.RCode == dnswire.RCodeRefused
		if s.refs[i], err = udpReply(q, resp); err != nil {
			return nil, s.close(err)
		}
	}
	return s, nil
}

// udpReply packs resp as dnsserver sends it over UDP, truncated when it
// exceeds the classic payload limit.
func udpReply(req, resp *dnswire.Message) ([]byte, error) {
	out, err := resp.Pack()
	if err != nil || len(out) <= dnswire.MaxUDPSize {
		return out, err
	}
	trunc := req.Reply()
	trunc.RCode = resp.RCode
	trunc.Truncated = true
	return trunc.Pack()
}

func (s *serveSys) close(cause error) error {
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.cache != nil {
		errs = append(errs, s.cache.Close())
	}
	if s.mon != nil {
		errs = append(errs, s.mon.Close())
	}
	return errors.Join(append([]error{cause}, errs...)...)
}

// querySequence draws n corpus indexes Zipf(zipfS) with the workload
// seed. Popularity is a property of the world, not of the seed: ranks
// are fixed by worldSeed and interleave refused and resolved names in
// the corpus's proportion, so every popularity band carries the same
// refuse/resolve mix. A seed that re-ranked the names would move a
// handful of hot names between the two paths and, with them, a quarter
// of the serving cost.
func querySequence(seed int64, refused []bool, n int) []int32 {
	rng := rand.New(rand.NewSource(worldSeed))
	var ref, res []int32
	for i, r := range refused {
		if r {
			ref = append(ref, int32(i))
		} else {
			res = append(res, int32(i))
		}
	}
	rng.Shuffle(len(ref), func(i, j int) { ref[i], ref[j] = ref[j], ref[i] })
	rng.Shuffle(len(res), func(i, j int) { res[i], res[j] = res[j], res[i] })
	share := float64(len(ref)) / float64(len(refused))
	ranked := make([]int32, 0, len(refused))
	nRef := 0
	for k := 0; k < len(refused); k++ {
		wantRef := float64(nRef) < share*float64(k+1)
		if (wantRef && nRef < len(ref)) || k-nRef >= len(res) {
			ranked = append(ranked, ref[nRef])
			nRef++
		} else {
			ranked = append(ranked, res[k-nRef])
		}
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), zipfS, 1, uint64(len(ranked)-1))
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = ranked[z.Uint64()]
	}
	return seq
}

func runServe(ctx context.Context, cfg config, rep *report) error {
	var s *serveSys
	for i := 0; i < cfg.setupReps; i++ {
		if s != nil {
			if err := s.close(nil); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if s, err = setupServe(ctx, cfg); err != nil {
			return err
		}
		rep.setup = append(rep.setup, time.Since(t0))
	}
	defer s.close(nil)

	// Per-name memory is measured before the benchmark's own query
	// sequence and latency samples are allocated.
	rep.layer["core.bytes_per_name"] = float64(liveHeapBytes()) / float64(max(s.mon.At().NumNames(), 1))
	// 2M draws cover 20 s at 100k queries/s; a faster machine wraps
	// around to the start of the same sequence.
	seq := querySequence(cfg.seed, s.refused, 1<<21)

	cs0, ps0 := s.cache.Stats(), s.proxy.Stats()
	rt0, cpu0 := markRuntime(), cpuTime()
	lat, elapsed, err := s.udpLoop(cfg, rep, seq)
	if err != nil {
		return err
	}
	cpu, rt1 := cpuTime()-cpu0, markRuntime()
	cs1, ps1 := s.cache.Stats(), s.proxy.Stats()
	rep.finish(lat.count(), elapsed, cpu, lat)

	l := rep.layer
	if d := (cs1.Hits - cs0.Hits) + (cs1.Misses - cs0.Misses); d > 0 {
		l["verdict.hit_ratio"] = float64(cs1.Hits-cs0.Hits) / float64(d)
	}
	if d := ps1.Served - ps0.Served; d > 0 {
		l["proxy.refused_share"] = float64(ps1.Refused-ps0.Refused) / float64(d)
	}
	runtimeLayer(l, rt0, rt1, lat.count())
	if cfg.trace {
		return s.replay(ctx, cfg, rep, seq, lat.quantile(0.5))
	}
	return nil
}

// udpLoop drives the server from one UDP socket for cfg.duration with
// serveWindow queries outstanding, checking every reply against its
// reference. It returns one latency per answered query.
func (s *serveSys) udpLoop(cfg config, rep *report, seq []int32) (*histogram, time.Duration, error) {
	conn, err := net.DialUDP("udp", nil, s.srv.Addr().(*net.UDPAddr))
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()

	type slot struct {
		idx  int32
		sent time.Time
		live bool
	}
	var slots [1 << 16]slot
	sendBuf := make([]byte, 0, 512)
	recvBuf := make([]byte, 64*1024)
	lat := &histogram{}
	next := 0
	outstanding := 0
	send := func() error {
		id := uint16(next)
		idx := seq[next%len(seq)]
		next++
		sendBuf = append(sendBuf[:0], s.queries[idx]...)
		sendBuf[0], sendBuf[1] = byte(id>>8), byte(id)
		slots[id] = slot{idx: idx, sent: time.Now(), live: true}
		outstanding++
		_, err := conn.Write(sendBuf)
		return err
	}

	start := time.Now()
	deadline := start.Add(cfg.duration)
	for i := 0; i < serveWindow; i++ {
		if err := send(); err != nil {
			return nil, 0, err
		}
	}
	last := start
	for outstanding > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(lostAfter)); err != nil {
			return nil, 0, err
		}
		n, err := conn.Read(recvBuf)
		now := time.Now()
		if err != nil {
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				return nil, 0, err
			}
			// Every outstanding query is older than lostAfter: count
			// them lost and, while the phase runs, replace them.
			lost := outstanding
			for id := range slots {
				if slots[id].live {
					slots[id].live = false
					outstanding--
					rep.fail("query for %s got no reply within %s", s.names[slots[id].idx], lostAfter)
				}
			}
			for ; lost > 0 && now.Before(deadline); lost-- {
				if err := send(); err != nil {
					return nil, 0, err
				}
			}
			continue
		}
		if n < 2 {
			rep.fail("short reply of %d bytes", n)
			continue
		}
		id := uint16(recvBuf[0])<<8 | uint16(recvBuf[1])
		sl := &slots[id]
		if !sl.live {
			rep.fail("reply with unexpected ID %d", id)
			continue
		}
		sl.live = false
		outstanding--
		lat.add(now.Sub(sl.sent))
		last = now
		if err := checkReply(recvBuf[:n], s.refs[sl.idx], id); err != nil {
			rep.fail("%s: %v", s.names[sl.idx], err)
		} else {
			rep.ok()
		}
		if now.Before(deadline) {
			if err := send(); err != nil {
				return nil, 0, err
			}
		}
	}
	return lat, last.Sub(start), nil
}

// checkReply compares a reply with its reference: same ID as the query,
// same RCODE and the same answer records. Byte equality past the ID is
// the fast path; otherwise both are decoded and compared record by
// record, ignoring order.
func checkReply(got, ref []byte, id uint16) error {
	if len(got) == len(ref) && bytes.Equal(got[2:], ref[2:]) && uint16(got[0])<<8|uint16(got[1]) == id {
		return nil
	}
	g, err := dnswire.Unpack(got)
	if err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	r, err := dnswire.Unpack(ref)
	if err != nil {
		return fmt.Errorf("undecodable reference: %w", err)
	}
	if g.ID != id {
		return fmt.Errorf("reply ID %d, query ID %d", g.ID, id)
	}
	if g.RCode != r.RCode {
		return fmt.Errorf("RCODE %s, want %s", g.RCode, r.RCode)
	}
	ga, ra := rrStrings(g.Answers), rrStrings(r.Answers)
	if !slices.Equal(ga, ra) {
		return fmt.Errorf("answers %v, want %v", ga, ra)
	}
	return nil
}

func rrStrings(rrs []dnswire.RR) []string {
	out := make([]string, len(rrs))
	for i, rr := range rrs {
		out[i] = rr.String()
	}
	slices.Sort(out)
	return out
}

// timedSource is transport middleware that records each upstream query
// as a child span of the resolve that issued it.
type timedSource struct {
	transport.Source
	rs *replayState
}

func (t timedSource) Query(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type, class dnswire.Class) (*dnswire.Message, error) {
	id := int32(0)
	if t.rs.on {
		id = t.rs.tr.begin("transport.Query", t.rs.parent, t.rs.op)
	}
	m, err := t.Source.Query(ctx, server, name, qtype, class)
	if d := t.rs.tr.end(id); id != 0 {
		t.rs.queryNs = append(t.rs.queryNs, d)
	}
	return m, err
}

// replayState carries the span context of the query being replayed into
// the transport middleware (the replay runs on one goroutine).
type replayState struct {
	tr      *tracer
	on      bool
	parent  int32
	op      int32
	queryNs samples
}

// replay is the traced half of serve. The UDP path cannot be split
// from outside, so the same query sequence is replayed in process
// through the calls dnsserver and the proxy make, each wrapped in a
// span; every reply is checked against the reference. Even-numbered
// queries are traced and odd ones run bare, so the difference of their
// medians is the tracing overhead.
func (s *serveSys) replay(ctx context.Context, cfg config, rep *report, seq []int32, udpP50 time.Duration) error {
	tr := rep.tr
	rs := &replayState{tr: tr}
	var counted atomic.Int64
	count := transport.Trace(func(netip.Addr, string, dnswire.Type) { counted.Add(1) })
	traced, err := resolver.New(timedSource{Source: transport.Chain(s.upstream, count), rs: rs},
		resolver.Config{Roots: s.world.Registry.RootServers()})
	if err != nil {
		return err
	}
	n := min(cfg.replay, len(seq))
	var unpack, lookup, resolve, serveRef, serveRes, pack, tracedOp, bareOp samples
	resolves := 0 // by the traced resolver, traced and bare queries alike
	for k := 0; k < n; k++ {
		idx := seq[k]
		id := uint16(k)
		pkt := slices.Clone(s.queries[idx])
		pkt[0], pkt[1] = byte(id>>8), byte(id)
		on := k%2 == 0
		op := int32(k + 1)
		t0 := time.Now()
		sp := func(name string, parent int32) int32 {
			if !on {
				return 0
			}
			return tr.begin(name, parent, op)
		}
		root := sp("query", 0)

		u := sp("dnswire.Unpack", root)
		req, err := dnswire.Unpack(pkt)
		du := tr.end(u)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		lk := sp("verdict.Cache.Lookup", root)
		v := s.cache.Lookup(req.Questions[0].Name)
		dl := tr.end(lk)
		var dr time.Duration
		if v.Level != verdict.Refuse {
			rv := sp("resolver.Resolve", root)
			rs.on, rs.parent, rs.op = on, rv, op
			_, rerr := traced.Resolve(ctx, req.Questions[0].Name, dnswire.TypeA)
			rs.on = false
			dr = tr.end(rv)
			if rerr != nil && !errors.Is(rerr, resolver.ErrNXDomain) && !errors.Is(rerr, resolver.ErrNoData) {
				rep.fail("replay resolve %s: %v", s.names[idx], rerr)
			}
			resolves++
		}
		sv := sp("proxy.ServeDNS", root)
		resp := s.proxy.ServeDNS(ctx, req)
		ds := tr.end(sv)
		pk := sp("dnswire.Pack", root)
		out, err := udpReply(req, resp)
		dp := tr.end(pk)
		dt := tr.end(root)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if cerr := checkReply(out, s.refs[idx], id); cerr != nil {
			rep.fail("replay %s: %v", s.names[idx], cerr)
		} else {
			rep.ok()
		}
		if !on {
			bareOp = append(bareOp, time.Since(t0))
			continue
		}
		tracedOp = append(tracedOp, dt)
		unpack, lookup, pack = append(unpack, du), append(lookup, dl), append(pack, dp)
		if v.Level == verdict.Refuse {
			serveRef = append(serveRef, ds)
		} else {
			resolve = append(resolve, dr)
			serveRes = append(serveRes, ds)
		}
	}

	l := rep.layer
	l["dnswire.unpack_ns"] = ns(unpack.median())
	l["dnswire.pack_ns"] = ns(pack.median())
	l["verdict.lookup_ns"] = ns(lookup.median())
	l["proxy.serve_refuse_ns"] = ns(serveRef.median())
	l["proxy.serve_resolve_ns"] = ns(serveRes.median())
	l["resolver.resolve_ns"] = ns(resolve.median())
	l["transport.query_ns"] = ns(rs.queryNs.median())
	if resolves > 0 {
		l["transport.queries_per_resolve"] = float64(counted.Load()) / float64(resolves)
	}
	all := append(append(samples{}, serveRef...), serveRes...)
	inproc := unpack.median() + all.median() + pack.median()
	l["dnsserver.overhead_us"] = us(udpP50 - inproc)
	rep.counts["replay_traced"], rep.counts["replay_bare"] = len(tracedOp), len(bareOp)
	rep.note("dnsserver overhead: UDP round trip p50 %.1f us - (unpack + ServeDNS + pack) p50 %.1f us = %.1f us",
		us(udpP50), us(inproc), us(udpP50-inproc))
	rep.note("tracing overhead: traced query p50 %.1f us - bare query p50 %.1f us = %.1f us per query (%d traced, %d bare, in process)",
		us(tracedOp.median()), us(bareOp.median()), us(tracedOp.median()-bareOp.median()), len(tracedOp), len(bareOp))

	// Allocation counts come from separate bare passes on this goroutine
	// while the server is idle, so nothing else allocates meanwhile.
	bare, err := resolver.New(transport.Chain(s.upstream, count), resolver.Config{Roots: s.world.Registry.RootServers()})
	if err != nil {
		return err
	}
	var reqs, refReqs, resReqs []*dnswire.Message
	var resps []*dnswire.Message
	for k := 0; k < min(n, 2000); k++ {
		req, err := dnswire.Unpack(s.queries[seq[k]])
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
		resps = append(resps, s.proxy.ServeDNS(ctx, req))
		if s.refused[seq[k]] {
			refReqs = append(refReqs, req)
		} else {
			resReqs = append(resReqs, req)
		}
	}
	var codecErr error
	l["dnswire.allocs_per_query"] = allocsPer(len(reqs), func(i int) {
		_, uerr := dnswire.Unpack(s.queries[seq[i]])
		_, perr := resps[i].Pack()
		codecErr = errors.Join(codecErr, uerr, perr)
	})
	if codecErr != nil {
		return codecErr
	}
	l["proxy.allocs_refuse"] = allocsPer(len(refReqs), func(i int) { s.proxy.ServeDNS(ctx, refReqs[i]) })
	l["proxy.allocs_resolve"] = allocsPer(len(resReqs), func(i int) { s.proxy.ServeDNS(ctx, resReqs[i]) })
	l["resolver.allocs_per_resolve"] = allocsPer(len(resReqs), func(i int) {
		_, _ = bare.Resolve(ctx, resReqs[i].Questions[0].Name, dnswire.TypeA)
	})
	return nil
}
