// Package readview is the read side every generation-stamped survey
// view shares. The single monitor's dnstrust.View and the fleet's
// fleet.FleetView embed its Core and keep only what is theirs; the
// sessions that commit them keep their retained history in a Timeline.
package readview

import (
	"context"
	"errors"
	"sync"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler"
	"dnstrust/internal/delta"
	"dnstrust/internal/mincut"
)

// Core is the read core of one committed generation: an immutable
// survey plus the paper's per-name and whole-corpus analyses over it.
// Whole-survey analyses (Summary, Bottlenecks) are computed once per
// view and shared; per-chain work inside them is served from a chain
// memo that persists across generations, so on a view committed after
// a small batch both are near-free. View types embed a Core by value
// and must not be copied after construction.
//
//lint:immutable
type Core struct {
	survey *crawler.Survey
	memo   *analysis.ChainMemo

	summaryOnce sync.Once
	summary     *analysis.Summary

	botMu    sync.Mutex
	botStats *analysis.BottleneckStats
}

// New returns the read core over survey s, serving per-chain results
// from memo.
func New(s *crawler.Survey, memo *analysis.ChainMemo) Core {
	return Core{survey: s, memo: memo}
}

// Generation reports which commit produced this view (0 = the empty
// pre-crawl view).
func (c *Core) Generation() int64 { return c.survey.Stats.Generation }

// Survey exposes the underlying crawl dataset (graph, banners,
// vulnerabilities, engine stats). It is immutable.
func (c *Core) Survey() *crawler.Survey { return c.survey }

// Memo is the cross-generation chain memo this view's analyses read
// through. It is internally synchronized.
func (c *Core) Memo() *analysis.ChainMemo { return c.memo }

// Names lists the successfully surveyed names, sorted. The slice is a
// defensive copy: callers may keep or modify it freely. Use NumNames
// when only the count is needed.
func (c *Core) Names() []string { return append([]string(nil), c.survey.Names...) }

// NumNames reports the number of successfully surveyed names without
// copying the name list.
func (c *Core) NumNames() int { return c.survey.Graph.NumNames() }

// TCB returns the trusted computing base of a surveyed name, sorted.
func (c *Core) TCB(name string) ([]string, error) {
	return c.survey.Graph.TCB(name)
}

// Summary computes the headline statistics over this view's whole
// corpus, once per view. Treat the result as read-only.
func (c *Core) Summary() *analysis.Summary {
	c.summaryOnce.Do(func() {
		c.summary = analysis.SummarizeMemo(c.survey, c.survey.Names, c.memo)
	})
	return c.summary
}

// Bottleneck runs the §3.2 min-cut analysis for one name, served from
// the chain memo when any name sharing the delegation chain was already
// analyzed in this or an untouched earlier generation.
func (c *Core) Bottleneck(name string) (*mincut.Result, error) {
	return analysis.BottleneckOfMemo(c.survey, name, c.memo)
}

// Bottlenecks runs the Figure 7 min-cut analysis over the whole corpus.
// A successful result is computed once per view and shared (treat it as
// read-only). Errors — a cancelled ctx, typically — are never cached: a
// later call with a live context recomputes, resuming from whatever
// per-chain results the aborted pass already stored.
func (c *Core) Bottlenecks(ctx context.Context) (*analysis.BottleneckStats, error) {
	c.botMu.Lock()
	defer c.botMu.Unlock()
	if c.botStats != nil {
		return c.botStats, nil
	}
	stats, err := analysis.BottlenecksMemo(ctx, c.survey, c.survey.Names, 0, c.memo)
	if err != nil {
		return nil, err
	}
	c.botStats = stats
	return stats, nil
}

// Diff computes the typed trust delta from older to this view. Views
// sharing one store diff incrementally off its interned ids and epoch
// stamps; unrelated views are compared by name. A nil older is an
// error. Cancellation is checked between per-chain min-cuts.
func (c *Core) Diff(ctx context.Context, older *Core) (*delta.Delta, error) {
	if older == nil {
		return nil, errors.New("readview: Diff of a nil view")
	}
	return delta.Compute(ctx, older.survey, c.survey,
		delta.Options{OldMemo: older.memo, NewMemo: c.memo})
}
