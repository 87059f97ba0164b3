package readview

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Ptr constrains a timeline's element: a pointer to a view type that
// reports its generation.
type Ptr[T any] interface {
	*T
	Generation() int64
}

// Timeline is a session's retained history of committed views, oldest
// to newest, behind a lock-free pointer to the newest. T is the view
// type and P its pointer type (dnstrust.View and *dnstrust.View, say).
type Timeline[T any, P Ptr[T]] struct {
	cur    atomic.Pointer[T]
	retain int

	// mu guards views. It is never held across a crawl or I/O, so
	// Views and Span never block behind an in-flight commit's work.
	mu    sync.Mutex
	views []P
}

// NewTimeline returns an empty timeline keeping at most retain views
// (at least one).
func NewTimeline[T any, P Ptr[T]](retain int) *Timeline[T, P] {
	return &Timeline[T, P]{retain: max(retain, 1)}
}

// Current returns the newest committed view, or nil before the first
// Commit. It never blocks.
func (t *Timeline[T, P]) Current() P { return P(t.cur.Load()) }

// Commit publishes v as the current view and appends it to the
// timeline, evicting the oldest views past the retain bound. When it
// evicts, it returns the new oldest retained view — no retained view
// diffs from below it, so the caller can prune older change journals;
// otherwise it returns nil.
func (t *Timeline[T, P]) Commit(v P) (oldest P) {
	// The current pointer and the timeline move inside one critical
	// section: anyone who observed the new generation via Current and
	// then asks the timeline is guaranteed to find it there.
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur.Store((*T)(v))
	t.views = append(t.views, v)
	if len(t.views) > t.retain {
		t.views = append([]P(nil), t.views[len(t.views)-t.retain:]...)
		oldest = t.views[0]
	}
	return oldest
}

// Views returns the retained views, oldest to newest.
func (t *Timeline[T, P]) Views() []P {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]P(nil), t.views...)
}

// Span returns the retained views at generations from and to. Both must
// still be retained, and from must not exceed to.
func (t *Timeline[T, P]) Span(from, to int64) (older, newer P, err error) {
	if from > to {
		return nil, nil, fmt.Errorf("Between(%d, %d): from exceeds to", from, to)
	}
	t.mu.Lock()
	lo, hi := int64(-1), int64(-1)
	for _, v := range t.views {
		g := v.Generation()
		if lo < 0 {
			lo = g
		}
		hi = g
		if g == from {
			older = v
		}
		if g == to {
			newer = v
		}
	}
	t.mu.Unlock()
	if older == nil || newer == nil {
		return nil, nil, fmt.Errorf("generations %d..%d not retained (timeline holds %d..%d; raise the retain bound)", from, to, lo, hi)
	}
	return older, newer, nil
}
