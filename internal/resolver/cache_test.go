package resolver_test

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnstrust/internal/dnsname"
	"dnstrust/internal/dnswire"
	"dnstrust/internal/resolver"
	"dnstrust/internal/topology"
	"dnstrust/internal/transport"
)

// contacts records the servers a resolver queries.
type contacts struct {
	mu    sync.Mutex
	addrs []netip.Addr
}

func (c *contacts) middleware() transport.Middleware {
	return transport.Trace(func(server netip.Addr, _ string, _ dnswire.Type) {
		c.mu.Lock()
		c.addrs = append(c.addrs, server)
		c.mu.Unlock()
	})
}

// take returns and clears the recorded contacts.
func (c *contacts) take() []netip.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.addrs
	c.addrs = nil
	return out
}

// tracedResolver builds a resolver over reg whose upstream queries are
// recorded, and reports whether a contact list reached a root server.
func tracedResolver(t *testing.T, reg *topology.Registry) (*resolver.Resolver, *contacts, func([]netip.Addr) bool) {
	t.Helper()
	rec := &contacts{}
	r, err := reg.Resolver(transport.Chain(reg.Source(), rec.middleware()))
	if err != nil {
		t.Fatal(err)
	}
	roots := map[netip.Addr]bool{}
	for _, s := range reg.RootServers() {
		roots[s.Addr] = true
	}
	viaRoot := func(addrs []netip.Addr) bool {
		return slices.ContainsFunc(addrs, func(a netip.Addr) bool { return roots[a] })
	}
	return r, rec, viaRoot
}

func TestDelegationCacheSiblingOneQuery(t *testing.T) {
	reg := topology.FBIWorld()
	reg.Zone("fbi.gov").MustAddRR(dnswire.RR{
		Name: "mail.fbi.gov", Class: dnswire.ClassINET, TTL: 60,
		Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.25")},
	})
	r, rec, _ := tracedResolver(t, reg)
	ctx := context.Background()
	if _, err := r.Resolve(ctx, "www.fbi.gov", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	cold := len(rec.take())
	res, err := r.Resolve(ctx, "mail.fbi.gov", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec.take()); got != 1 {
		t.Errorf("sibling resolve issued %d upstream queries (cold walk: %d), want 1", got, cold)
	}
	if len(res.Addrs) != 1 || res.Addrs[0] != netip.MustParseAddr("192.0.2.25") {
		t.Errorf("sibling answer = %v", res.Addrs)
	}
}

// fakeClock is a settable clock for the delegation cache's TTLs.
type fakeClock struct{ t atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.t.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.t.Add(int64(d)) }

func TestDelegationCacheTTLExpiry(t *testing.T) {
	reg := topology.FBIWorld()
	r, rec, viaRoot := tracedResolver(t, reg)
	clk := &fakeClock{}
	clk.t.Store(time.Unix(1_000_000, 0).UnixNano())
	r.SetClock(clk.now)
	ctx := context.Background()
	resolve := func() []netip.Addr {
		t.Helper()
		if _, err := r.Resolve(ctx, "www.fbi.gov", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
		return rec.take()
	}

	if !viaRoot(resolve()) {
		t.Fatal("a cold resolve must start at the root")
	}
	clk.advance(time.Hour)
	if got := resolve(); viaRoot(got) || len(got) != 1 {
		t.Fatalf("warm resolve within the TTL: %d queries via root=%v, want 1 to fbi.gov", len(got), viaRoot(got))
	}
	// Every delegation in the FBI world carries the zone default TTL.
	if r.CachedServers("fbi.gov") == nil {
		t.Fatal("fbi.gov delegation not cached")
	}
	clk.advance(24 * time.Hour)
	if r.CachedServers("fbi.gov") != nil {
		t.Fatal("fbi.gov delegation still live past its TTL")
	}
	if !viaRoot(resolve()) {
		t.Error("a resolve past every delegation's TTL must walk from the root")
	}
}

// TestDelegationCacheEvictsLameSet caches a delegation while one of its
// servers is unaddressable, then makes every cached server lame: the
// next resolve must fall back to the root, reach the now-addressable
// server, and replace the cached set.
func TestDelegationCacheEvictsLameSet(t *testing.T) {
	b := topology.NewWorld()
	gtld := []string{"a.gtld-servers.net", "b.gtld-servers.net"}
	b.Zone("com", gtld...)
	b.Zone("net", gtld...)
	b.Zone("gtld-servers.net", gtld...)
	b.Zone("example.com", "ns1.example.com", "ns.other.net")
	b.Zone("other.net", "ns1.other.net")
	b.Host("www.example.com")
	reg := b.Finalize()
	r, rec, viaRoot := tracedResolver(t, reg)
	ctx := context.Background()

	if err := reg.SetLame("ns1.other.net", true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(ctx, "www.example.com", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if got := r.CachedServers("example.com"); len(got) != 1 || got[0].Host != "ns1.example.com" {
		t.Fatalf("cached example.com servers = %v, want only ns1.example.com", got)
	}
	rec.take()

	if err := reg.SetLame("ns1.other.net", false); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetLame("ns1.example.com", true); err != nil {
		t.Fatal(err)
	}
	res, err := r.Resolve(ctx, "www.example.com", dnswire.TypeA)
	if err != nil {
		t.Fatalf("resolve with every cached server lame: %v", err)
	}
	if len(res.Addrs) != 1 {
		t.Errorf("answer = %v", res.Addrs)
	}
	if !viaRoot(rec.take()) {
		t.Error("a failed cached set must restart the resolution from the root")
	}
	hosts := []string{}
	for _, s := range r.CachedServers("example.com") {
		hosts = append(hosts, s.Host)
	}
	if !slices.Contains(hosts, "ns.other.net") {
		t.Errorf("cached example.com servers = %v: the lame set was not replaced", hosts)
	}
}

// TestDelegationCacheConcurrent resolves overlapping names from many
// goroutines on one resolver while another flushes the cache; run it
// under -race. Every answer must match a cold walk from the root.
func TestDelegationCacheConcurrent(t *testing.T) {
	world, err := topology.Generate(topology.GenParams{Seed: 5, Names: 120})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, err := world.Registry.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, n := range world.Corpus {
		ref.FlushDelegations()
		res, err := ref.Resolve(ctx, n, dnswire.TypeA)
		want[n] = answerKey(res, err)
	}

	r, err := world.Registry.Resolver(nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
				r.FlushDelegations()
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(world.Corpus); i++ {
				n := world.Corpus[(g*7+i*(g+1))%len(world.Corpus)]
				res, err := r.Resolve(ctx, n, dnswire.TypeA)
				if got := answerKey(res, err); got != want[n] {
					t.Errorf("%s: got %s, want %s", n, got, want[n])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-flushed
}

func answerKey(res *resolver.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var rrs []string
	for _, rr := range res.Records {
		rrs = append(rrs, rr.String())
	}
	slices.Sort(rrs)
	return fmt.Sprint(rrs)
}

// scripted is an in-memory Internet of hand-written servers: each
// address answers from its own function.
type scripted map[netip.Addr]func(name string, qtype dnswire.Type) *dnswire.Message

func (s scripted) Query(_ context.Context, server netip.Addr, name string, qtype dnswire.Type, _ dnswire.Class) (*dnswire.Message, error) {
	h, ok := s[server]
	if !ok {
		return nil, fmt.Errorf("no server at %v", server)
	}
	return h(dnsname.Canonical(name), qtype), nil
}

func glueA(host, addr string) dnswire.RR {
	return dnswire.RR{Name: host, Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.A{Addr: netip.MustParseAddr(addr)}}
}

// referral delegates child to the named hosts, with the given glue.
func referral(child string, hosts []string, glue ...dnswire.RR) *dnswire.Message {
	m := &dnswire.Message{Header: dnswire.Header{Response: true}, Additional: glue}
	for _, h := range hosts {
		m.Authority = append(m.Authority, dnswire.RR{Name: child, Class: dnswire.ClassINET, TTL: 3600, Data: dnswire.NS{Host: h}})
	}
	return m
}

// answer is an authoritative A answer; an empty addr is NODATA.
func answer(name, addr string) *dnswire.Message {
	m := &dnswire.Message{Header: dnswire.Header{Response: true, Authoritative: true}}
	if addr != "" {
		m.Answers = []dnswire.RR{glueA(name, addr)}
	}
	return m
}

var testRoot = resolver.ServerAddr{Host: "a.root.test", Addr: netip.MustParseAddr("198.41.0.4")}

// TestReferralKeepsMixedCaseGlue feeds a referral whose two A glue
// records name the server host in mixed case, as live servers may:
// both addresses must reach the delegation's server set.
func TestReferralKeepsMixedCaseGlue(t *testing.T) {
	net := scripted{
		testRoot.Addr: func(string, dnswire.Type) *dnswire.Message {
			return referral("example.com", []string{"NS1.Example.COM."},
				glueA("NS1.Example.COM.", "192.0.2.1"), glueA("NS1.Example.COM.", "192.0.2.2"))
		},
		netip.MustParseAddr("192.0.2.1"): func(n string, _ dnswire.Type) *dnswire.Message { return answer(n, "203.0.113.5") },
		netip.MustParseAddr("192.0.2.2"): func(n string, _ dnswire.Type) *dnswire.Message { return answer(n, "203.0.113.5") },
	}
	r, err := resolver.New(net, resolver.Config{Roots: []resolver.ServerAddr{testRoot}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(context.Background(), "www.example.com", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	want := []resolver.ServerAddr{
		{Host: "ns1.example.com", Addr: netip.MustParseAddr("192.0.2.1")},
		{Host: "ns1.example.com", Addr: netip.MustParseAddr("192.0.2.2")},
	}
	if got := r.CachedServers("example.com"); !slices.Equal(got, want) {
		t.Errorf("example.com servers = %v, want %v", got, want)
	}
}

// TestReferralIgnoresOutOfBailiwickGlue has the com server vouch for
// an address of ns1.example.net, a host outside com: that glue must be
// ignored, the host resolved through net, and the poisoned address
// never contacted or cached.
func TestReferralIgnoresOutOfBailiwickGlue(t *testing.T) {
	poison := netip.MustParseAddr("6.6.6.6")
	var poisoned atomic.Bool
	net := scripted{
		testRoot.Addr: func(n string, _ dnswire.Type) *dnswire.Message {
			if dnsname.IsSubdomain(n, "net") {
				return referral("net", []string{"a.nic.net"}, glueA("a.nic.net", "192.0.2.20"))
			}
			return referral("com", []string{"a.nic.com"}, glueA("a.nic.com", "192.0.2.10"))
		},
		netip.MustParseAddr("192.0.2.10"): func(string, dnswire.Type) *dnswire.Message {
			return referral("example.com", []string{"ns1.example.net"}, glueA("ns1.example.net", poison.String()))
		},
		netip.MustParseAddr("192.0.2.20"): func(string, dnswire.Type) *dnswire.Message {
			return referral("example.net", []string{"ns1.example.net"}, glueA("ns1.example.net", "192.0.2.30"))
		},
		netip.MustParseAddr("192.0.2.30"): func(n string, _ dnswire.Type) *dnswire.Message {
			if n == "ns1.example.net" {
				return answer(n, "192.0.2.30")
			}
			return answer(n, "203.0.113.5")
		},
		poison: func(n string, _ dnswire.Type) *dnswire.Message {
			poisoned.Store(true)
			return answer(n, "203.0.113.66")
		},
	}
	r, err := resolver.New(net, resolver.Config{Roots: []resolver.ServerAddr{testRoot}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Resolve(context.Background(), "www.example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Addrs) != 1 || res.Addrs[0] != netip.MustParseAddr("203.0.113.5") || poisoned.Load() {
		t.Errorf("answer = %v, poisoned server contacted: %v", res.Addrs, poisoned.Load())
	}
	want := []resolver.ServerAddr{{Host: "ns1.example.net", Addr: netip.MustParseAddr("192.0.2.30")}}
	if got := r.CachedServers("example.com"); !slices.Equal(got, want) {
		t.Errorf("example.com servers = %v, want %v", got, want)
	}
}
