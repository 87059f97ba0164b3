// Package httpapi is the HTTP/JSON surface dnsmonitord and dnsfleetd
// share: the read routes GET /summary, /tcb?name=, /bottleneck?name=,
// /generations and /diff?from=&to= over one session's committed views,
// the helpers both daemons' own routes use, and the server both listen
// with. A missing ?name= or a bad or inverted from/to answers 400, an
// unknown name or a generation no longer retained 404, and a read
// before the first commit 503.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dnstrust/internal/analysis"
	"dnstrust/internal/crawler"
	"dnstrust/internal/delta"
	"dnstrust/internal/mincut"
)

// View is the read side of one committed generation. dnstrust.View and
// fleet.FleetView both satisfy it through the read core they embed.
type View interface {
	comparable
	Generation() int64
	Survey() *crawler.Survey
	NumNames() int
	Summary() *analysis.Summary
	TCB(name string) ([]string, error)
	Bottleneck(name string) (*mincut.Result, error)
}

// API serves the shared read routes over one session. The *Fields
// hooks add a daemon's own keys to a response; each may be nil.
type API[V View] struct {
	// Current returns the latest committed view; the zero V answers 503.
	Current func() V
	// Timeline returns the retained views, oldest to newest.
	Timeline func() []V
	// Between diffs two retained generations.
	Between func(ctx context.Context, from, to int64) (*delta.Delta, error)

	// SummaryFields extends the /summary response.
	SummaryFields func(v V, out map[string]any)
	// NameFields extends the /tcb and /bottleneck responses.
	NameFields func(name string, out map[string]any)
	// GenerationFields extends each /generations entry.
	GenerationFields func(v V, out map[string]any)
}

// Mount registers the shared read routes on mux.
func (a *API[V]) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /summary", a.summary)
	mux.HandleFunc("GET /tcb", a.tcb)
	mux.HandleFunc("GET /bottleneck", a.bottleneck)
	mux.HandleFunc("GET /generations", a.generations)
	mux.HandleFunc("GET /diff", a.diff)
}

// Latest returns the current view, or answers 503 and reports false
// when nothing has been committed yet.
func (a *API[V]) Latest(w http.ResponseWriter) (V, bool) {
	v := a.Current()
	var zero V
	if v == zero {
		WriteErr(w, http.StatusServiceUnavailable, errors.New("no committed generation yet"))
		return zero, false
	}
	return v, true
}

func (a *API[V]) summary(w http.ResponseWriter, r *http.Request) {
	v, ok := a.Latest(w)
	if !ok {
		return
	}
	sum := v.Summary()
	out := map[string]any{
		"generation":         v.Generation(),
		"names":              sum.Names,
		"servers":            sum.Servers,
		"vulnerable_servers": sum.VulnerableServers,
		"affected_names":     sum.AffectedNames,
		"tcb_mean":           sum.TCB.Mean(),
		"tcb_median":         sum.TCB.Median(),
		"tcb_max":            sum.TCB.Max(),
		"direct_mean":        sum.DirectMean,
		"owned_mean":         sum.OwnedMean,
	}
	if a.SummaryFields != nil {
		a.SummaryFields(v, out)
	}
	WriteJSON(w, http.StatusOK, out)
}

// nameRead resolves ?name= against the current view and answers with
// the fields read returns, plus generation, name and the daemon's name
// fields. A read error is a 404: the name is not in the survey.
func (a *API[V]) nameRead(w http.ResponseWriter, r *http.Request, read func(v V, name string) (map[string]any, error)) {
	name, ok := NameParam(w, r)
	if !ok {
		return
	}
	v, ok := a.Latest(w)
	if !ok {
		return
	}
	out, err := read(v, name)
	if err != nil {
		WriteErr(w, http.StatusNotFound, err)
		return
	}
	out["generation"] = v.Generation()
	out["name"] = name
	if a.NameFields != nil {
		a.NameFields(name, out)
	}
	WriteJSON(w, http.StatusOK, out)
}

func (a *API[V]) tcb(w http.ResponseWriter, r *http.Request) {
	a.nameRead(w, r, func(v V, name string) (map[string]any, error) {
		tcb, err := v.TCB(name)
		if err != nil {
			return nil, err
		}
		return map[string]any{"tcb_size": len(tcb), "tcb": tcb}, nil
	})
}

func (a *API[V]) bottleneck(w http.ResponseWriter, r *http.Request) {
	a.nameRead(w, r, func(v V, name string) (map[string]any, error) {
		res, err := v.Bottleneck(name)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"cut":         res.Cut,
			"cut_size":    res.Size,
			"safe_in_cut": res.SafeInCut,
			"vuln_in_cut": res.VulnInCut,
		}, nil
	})
}

func (a *API[V]) generations(w http.ResponseWriter, r *http.Request) {
	tl := a.Timeline()
	out := make([]map[string]any, 0, len(tl))
	for _, v := range tl {
		e := Dimensions(v)
		if a.GenerationFields != nil {
			a.GenerationFields(v, e)
		}
		out = append(out, e)
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"retained":    len(tl),
		"generations": out,
	})
}

func (a *API[V]) diff(w http.ResponseWriter, r *http.Request) {
	tl := a.Timeline()
	if len(tl) == 0 {
		WriteErr(w, http.StatusBadRequest, errors.New("no generations retained"))
		return
	}
	from, err := GenParam(r, "from", tl[0].Generation())
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	to, err := GenParam(r, "to", tl[len(tl)-1].Generation())
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if from > to {
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("from=%d exceeds to=%d", from, to))
		return
	}
	d, err := a.Between(r.Context(), from, to)
	if err != nil {
		WriteErr(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, d)
}

// Dimensions returns a view's generation and survey sizes: each
// /generations entry, and the common start of the daemons' /stats.
func Dimensions[V View](v V) map[string]any {
	g := v.Survey().Graph
	return map[string]any{
		"generation": v.Generation(),
		"names":      v.NumNames(),
		"servers":    g.NumHosts(),
		"zones":      g.NumZones(),
		"chains":     g.NumChains(),
	}
}

// WriteJSON answers with v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteErr answers with {"error": err}.
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// NameParam extracts ?name=, or answers 400 and reports false.
func NameParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.URL.Query().Get("name")
	if name == "" {
		WriteErr(w, http.StatusBadRequest, errors.New("missing ?name= parameter"))
		return "", false
	}
	return name, true
}

// GenParam parses an int64 query parameter, with a default when absent.
func GenParam(r *http.Request, key string, def int64) (int64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad ?%s=%q: %w", key, raw, err)
	}
	return v, nil
}

// MaxAddBody bounds a POST /add body.
const MaxAddBody = 16 << 20

// AddNames reads the whitespace-separated names of a POST /add body. A
// body over MaxAddBody answers 413 — never a truncated batch with a
// name cut in half — and an empty one 400; either way it reports false
// and the caller commits nothing.
func AddNames(w http.ResponseWriter, r *http.Request) ([]string, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxAddBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", MaxAddBody))
		} else {
			WriteErr(w, http.StatusBadRequest, err)
		}
		return nil, false
	}
	names := strings.Fields(string(body))
	if len(names) == 0 {
		WriteErr(w, http.StatusBadRequest, errors.New("empty body: send whitespace-separated names"))
		return nil, false
	}
	return names, true
}

// Server limits. They are constants, not flags: header reads are
// bounded so a slow client cannot pin a connection, while bodies and
// responses are not, since a /add crawl or a snapshot stream may
// legitimately run long. Shutdown gives in-flight requests drainTimeout
// to finish.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 30 * time.Second
)

// Serve answers HTTP on addr with h until ctx is cancelled, then stops
// accepting, drains in-flight requests, and returns. A listen failure
// returns at once.
func Serve(ctx context.Context, addr string, h http.Handler) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drainTimeout)
	defer cancel()
	err := srv.Shutdown(dctx)
	<-done // Serve returned http.ErrServerClosed when Shutdown began
	return err
}
