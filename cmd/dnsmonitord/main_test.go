package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dnstrust"
	"dnstrust/internal/httpapi"
)

// TestAddTooLarge checks that an oversized /add answers 413 and commits
// no generation.
func TestAddTooLarge(t *testing.T) {
	m, err := dnstrust.Open(context.Background(), dnstrust.Options{Names: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := &server{m: m}
	// Whole names, so a truncating reader would split the last one.
	body := strings.Repeat("www.site0.com\n", httpapi.MaxAddBody/14+1)[:httpapi.MaxAddBody+1]
	rec := httptest.NewRecorder()
	s.routes().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("POST /add of MaxAddBody+1 bytes = %d, want 413 (%s)", rec.Code, rec.Body)
	}
	if g, q := m.Generation(), m.Queries(); g != 0 || q != 0 {
		t.Errorf("after a refused /add: generation %d, %d transport queries; want 0, 0", g, q)
	}
}
