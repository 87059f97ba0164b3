package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dnstrust"
	"dnstrust/internal/fleet"
	"dnstrust/internal/httpapi"
	"dnstrust/internal/snapshot"
)

// oneShard merges a single monitor shard named s0 that surveyed names.
func oneShard(t *testing.T, names int) *fleet.Coordinator {
	t.Helper()
	m, err := dnstrust.Open(context.Background(), dnstrust.Options{Names: names, ShardName: "s0"})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
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
	return c
}

// TestAddTooLarge checks that an oversized /add answers 413 without
// fanning out or merging a generation.
func TestAddTooLarge(t *testing.T) {
	c := oneShard(t, 40)
	s := newServer(c, map[string]string{"s0": "http://127.0.0.1:1"})
	body := strings.Repeat("www.site0.com\n", httpapi.MaxAddBody/14+1)[:httpapi.MaxAddBody+1]
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /add of MaxAddBody+1 bytes = %d, want 413 (%s)", rec.Code, rec.Body)
	}
	if g := c.Generation(); g != 1 {
		t.Errorf("after a refused /add the fleet is at generation %d, want 1", g)
	}
	if st := c.Status(); st[0].Failures != 0 {
		t.Errorf("a refused /add reached the shard: %+v", st[0])
	}
}

// TestFleetFields checks that the router's shared reads carry its own
// keys: staleness on /summary and /generations, the owner on /tcb and
// /bottleneck.
func TestFleetFields(t *testing.T) {
	c := oneShard(t, 40)
	h := newServer(c, nil).routes()
	name := c.Current().Names()[0]
	for target, keys := range map[string][]string{
		"/summary":                 {"generation", "names", "stale", "stale_shards"},
		"/tcb?name=" + name:        {"generation", "name", "tcb", "shard"},
		"/bottleneck?name=" + name: {"generation", "name", "cut", "shard"},
		"/stats":                   {"generation", "stale", "shards"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		var obj map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", target, rec.Code, err)
		}
		for _, k := range keys {
			if _, ok := obj[k]; !ok {
				t.Errorf("GET %s lacks %q: %s", target, k, rec.Body)
			}
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/generations", nil))
	var gens struct {
		Generations []map[string]any `json:"generations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &gens); err != nil || len(gens.Generations) != 1 {
		t.Fatalf("GET /generations = %s, %v", rec.Body, err)
	}
	for _, k := range []string{"changed", "stale", "stale_shards"} {
		if _, ok := gens.Generations[0][k]; !ok {
			t.Errorf("/generations entry lacks %q: %s", k, rec.Body)
		}
	}
}
