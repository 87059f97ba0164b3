package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dnstrust/internal/atomicio"
)

// span is one timed call into a layer. Spans of one query, commit or
// fleet round share Op; Parent is the id of the span whose call caused
// this one (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs call the same code.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Start: now})
	return int32(len(t.spans))
}

// end closes the span begin returned and reports its duration.
func (t *tracer) end(id int32) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// add records a span whose bounds were measured elsewhere, such as the
// walk and finish phases the crawler reports in CrawlStats.
func (t *tracer) add(name string, parent, op int32, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.base))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Start: s, End: s + int64(d)})
}

// durations returns every duration recorded under name.
func (t *tracer) durations(name string) samples {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed by span id - 1. Children that ran
// concurrently (the shard adds of a fleet round) are covered once.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			kids[s.Parent-1] = append(kids[s.Parent-1], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, p := range t.spans {
		c := kids[i]
		sort.Slice(c, func(a, b int) bool { return c[a].Start < c[b].Start })
		var covered, reach int64
		reach = p.Start
		for _, k := range c {
			lo, hi := max(k.Start, reach), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = p.dur() - time.Duration(covered)
	}
	return self
}

// selfOf returns the self times of the spans named name.
func (t *tracer) selfOf(name string) samples {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfTimes()
	var out samples
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, self[i])
		}
	}
	return out
}

// writeTable prints one row per span name: count, median duration,
// median self time and the share of all self time.
func (t *tracer) writeTable(w io.Writer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfTimes()
	type row struct {
		dur, self samples
		total     time.Duration
	}
	rows := map[string]*row{}
	var all time.Duration
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
		}
		r.dur = append(r.dur, s.dur())
		r.self = append(r.self, self[i])
		r.total += self[i]
		all += self[i]
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %8s %14s %14s %7s\n", "span", "count", "p50 total (us)", "p50 self (us)", "self %")
	for _, n := range names {
		r := rows[n]
		share := 0.0
		if all > 0 {
			share = 100 * float64(r.total) / float64(all)
		}
		fmt.Fprintf(w, "%-34s %8d %14.1f %14.1f %6.1f%%\n", n, len(r.dur), us(r.dur.median()), us(r.self.median()), share)
	}
}

// save writes the spans as JSON lines.
func (t *tracer) save(path string) (int, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	_, err := atomicio.WriteFile(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		enc := json.NewEncoder(bw)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return bw.Flush()
	})
	return len(spans), err
}
