package httpapi_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dnstrust"
	"dnstrust/internal/fleet"
	"dnstrust/internal/httpapi"
	"dnstrust/internal/snapshot"
)

// monitorMux mounts the shared routes over m, as dnsmonitord does.
func monitorMux(m *dnstrust.Monitor) *http.ServeMux {
	mux := http.NewServeMux()
	api := &httpapi.API[*dnstrust.View]{Current: m.At, Timeline: m.Timeline, Between: m.BetweenContext}
	api.Mount(mux)
	return mux
}

// fleetMux mounts the shared routes over c with fleet-only fields, as
// dnsfleetd does.
func fleetMux(c *fleet.Coordinator) *http.ServeMux {
	mux := http.NewServeMux()
	api := &httpapi.API[*fleet.FleetView]{
		Current:  c.Current,
		Timeline: c.Timeline,
		Between:  c.Between,
		SummaryFields: func(v *fleet.FleetView, out map[string]any) {
			out["stale"] = v.Stale()
			out["stale_shards"] = v.StaleShards()
		},
		NameFields: func(name string, out map[string]any) { out["shard"] = "s0" },
	}
	api.Mount(mux)
	return mux
}

func get(t *testing.T, h http.Handler, target string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec.Code, rec.Body.Bytes()
}

// TestStatusCodes pins the shared routes' error contract.
func TestStatusCodes(t *testing.T) {
	m, err := dnstrust.Open(context.Background(), dnstrust.Options{Seed: 3, Names: 90, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	corpus := m.World().Corpus
	for _, b := range [][]string{corpus[:30], corpus[30:60], corpus[60:]} {
		if _, err := m.Add(context.Background(), b...); err != nil {
			t.Fatal(err)
		}
	}
	// Retain=2 keeps generations 2 and 3; 0 and 1 are evicted.
	h := monitorMux(m)
	name := m.At().Names()[0]
	for _, tc := range []struct {
		target string
		want   int
	}{
		{"/summary", http.StatusOK},
		{"/tcb?name=" + name, http.StatusOK},
		{"/bottleneck?name=" + name, http.StatusOK},
		{"/generations", http.StatusOK},
		{"/diff", http.StatusOK},
		{"/diff?from=2&to=3", http.StatusOK},
		{"/tcb", http.StatusBadRequest},
		{"/bottleneck", http.StatusBadRequest},
		{"/tcb?name=nowhere.invalid", http.StatusNotFound},
		{"/bottleneck?name=nowhere.invalid", http.StatusNotFound},
		{"/diff?from=x", http.StatusBadRequest},
		{"/diff?to=3.5", http.StatusBadRequest},
		{"/diff?from=3&to=2", http.StatusBadRequest},
		{"/diff?from=1&to=3", http.StatusNotFound},
	} {
		if code, body := get(t, h, tc.target); code != tc.want {
			t.Errorf("GET %s = %d, want %d (%s)", tc.target, code, tc.want, body)
		}
	}

	var gens struct {
		Retained    int              `json:"retained"`
		Generations []map[string]any `json:"generations"`
	}
	_, body := get(t, h, "/generations")
	if err := json.Unmarshal(body, &gens); err != nil {
		t.Fatal(err)
	}
	if gens.Retained != 2 || len(gens.Generations) != 2 || gens.Generations[0]["generation"] != 2.0 {
		t.Errorf("/generations = %s, want generations 2 and 3", body)
	}
}

// TestNoCommittedView checks that reads before the first commit answer
// 503 rather than dereferencing a missing view.
func TestNoCommittedView(t *testing.T) {
	c, err := fleet.New([]fleet.Shard{{Name: "s0", Source: &fleet.FixedSource{}}}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := fleetMux(c)
	for _, target := range []string{"/summary", "/tcb?name=a.example", "/bottleneck?name=a.example"} {
		if code, body := get(t, h, target); code != http.StatusServiceUnavailable {
			t.Errorf("GET %s = %d, want 503 (%s)", target, code, body)
		}
	}
	if code, _ := get(t, h, "/diff"); code != http.StatusBadRequest {
		t.Errorf("GET /diff on an empty timeline = %d, want 400", code)
	}
}

// TestFleetMatchesMonitor is the HTTP-level equivalence: a one-shard
// fleet over a monitor answers the shared reads with the monitor's own
// bodies, apart from the generation stamp and the fleet-only keys.
func TestFleetMatchesMonitor(t *testing.T) {
	m, err := dnstrust.Open(context.Background(), dnstrust.Options{Seed: 5, Names: 120, ShardName: "s0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if _, err := m.Add(context.Background(), m.World().Corpus...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := fleet.DecodeEpoch(f)
	if err != nil {
		t.Fatal(err)
	}
	c, err := fleet.New([]fleet.Shard{{Name: "s0", Source: &fleet.FixedSource{Epoch: ep}}}, fleet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(context.Background()); err != nil {
		t.Fatal(err)
	}

	mon, flt := monitorMux(m), fleetMux(c)
	targets := []string{"/summary"}
	for _, n := range m.At().Names()[:20] {
		targets = append(targets, "/tcb?name="+n, "/bottleneck?name="+n)
	}
	for _, target := range targets {
		mc, mb := get(t, mon, target)
		fc, fb := get(t, flt, target)
		if mc != http.StatusOK || fc != http.StatusOK {
			t.Fatalf("GET %s: monitor %d, fleet %d", target, mc, fc)
		}
		mj, fj := sharedKeys(t, mb), sharedKeys(t, fb)
		if mj != fj {
			t.Errorf("GET %s differs:\nmonitor %s\nfleet   %s", target, mj, fj)
		}
	}
}

// sharedKeys re-encodes a JSON object without the generation stamp and
// the fleet-only keys.
func sharedKeys(t *testing.T, body []byte) string {
	t.Helper()
	var obj map[string]any
	if err := json.Unmarshal(body, &obj); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"generation", "stale", "stale_shards", "shard"} {
		delete(obj, k)
	}
	out, err := json.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestAddNamesBound checks the /add body reader: a body at the bound is
// read whole, one byte over answers 413, an empty one 400.
func TestAddNamesBound(t *testing.T) {
	read := func(body string) (int, []string) {
		rec := httptest.NewRecorder()
		names, ok := httpapi.AddNames(rec, httptest.NewRequest(http.MethodPost, "/add", strings.NewReader(body)))
		if ok {
			return 0, names
		}
		return rec.Code, nil
	}
	atBound := strings.Repeat(" ", httpapi.MaxAddBody-len("last.example")) + "last.example"
	if code, names := read(atBound); code != 0 || len(names) != 1 || names[0] != "last.example" {
		t.Errorf("body of exactly MaxAddBody: code %d, names %v; want the one name whole", code, names)
	}
	if code, _ := read(atBound + "x"); code != http.StatusRequestEntityTooLarge {
		t.Errorf("body of MaxAddBody+1 = %d, want 413", code)
	}
	if code, _ := read(" \n\t"); code != http.StatusBadRequest {
		t.Errorf("blank body = %d, want 400", code)
	}
}

// TestServeDrains checks the graceful shutdown: once ctx is cancelled,
// Serve waits for the in-flight request to finish before returning.
func TestServeDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.Write([]byte("done"))
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- httpapi.Serve(ctx, addr, h) }()

	reply := make(chan string, 1)
	go func() {
		var resp *http.Response
		var err error
		for range 100 { // the listener comes up asynchronously
			if resp, err = http.Get("http://" + addr + "/"); err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			reply <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		reply <- string(b)
	}()

	<-entered
	cancel()
	select {
	case err := <-served:
		t.Fatalf("Serve returned (%v) with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if got := <-reply; got != "done" {
		t.Errorf("in-flight reply = %q, want done", got)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve = %v after a clean drain", err)
	}
}
