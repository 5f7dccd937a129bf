package plugin

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/core"
	"wiclean/internal/source"
	"wiclean/internal/taxonomy"
)

// flakySource fails every fetch with a *source.FetchError while down is
// set. It sits above the Fetcher, so a type the Fetcher has cached fails
// too.
type flakySource struct {
	source.HistorySource
	down *atomic.Bool
}

func (s flakySource) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	if s.down.Load() {
		return nil, &source.FetchError{Type: t, Window: w, Attempts: 1, Err: errors.New("history backend down")}
	}
	return s.HistorySource.FetchType(ctx, t, w)
}

// doneEdit returns a /suggest request for one of the world's real edits
// whose advice lists an already-done companion, asked of the shared
// server over the in-memory history.
func doneEdit(t *testing.T) SuggestRequest {
	t.Helper()
	url := sharedServer(t)
	reg := cachedWorld.Reg
	for _, a := range cachedWorld.History.AllActions(cachedWorld.Span) {
		req := SuggestRequest{
			Subject: reg.Name(a.Edge.Src), Op: "+", Label: string(a.Edge.Label),
			Object: reg.Name(a.Edge.Dst), At: int64(a.T),
		}
		if a.Op == action.Remove {
			req.Op = "-"
		}
		for _, adv := range suggestAdvice(t, url, req) {
			if len(adv.Done) > 0 {
				return req
			}
		}
	}
	t.Fatal("no edit of the world has an already-done companion")
	return SuggestRequest{}
}

// suggestAdvice posts req and decodes the 200 answer.
func suggestAdvice(t *testing.T, url string, req SuggestRequest) []AdviceInfo {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, resp := postSuggest(t, url, string(body))
	if status != http.StatusOK {
		t.Fatalf("/suggest %s = %d (%s)", body, status, resp)
	}
	var advice []AdviceInfo
	if err := json.Unmarshal(resp, &advice); err != nil {
		t.Fatal(err)
	}
	return advice
}

// TestFailedStoreFailsClosed mines a server over a history source that
// fails every fetch while a flag is set. Before the flag, /suggest
// answers an edit with an already-done companion. Once one fetch has
// failed, the store returns no actions, so a recomputed answer would list
// that companion as missing: /suggest must answer 503 and cache nothing,
// also for the edit it answered and cached before, and also after the
// backend recovers; /readyz and /history answer 503 too, and detection
// over the store returns the *source.FetchError, once: detection runs no
// task over a failed store. Without those checks the first request after
// the failure answers 200 with its done companions listed as suggested.
func TestFailedStoreFailsClosed(t *testing.T) {
	edit := doneEdit(t)
	var down atomic.Bool
	store := source.NewStore(context.Background(),
		flakySource{source.NewFetcher(source.NewMemory(cachedWorld.History), nil), &down})
	sys := core.New(store, cachedCfg)
	if _, err := sys.Mine(cachedWorld.Seeds, cachedWorld.Domain.SeedType, cachedWorld.Span); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewResponseCache(CacheConfig{MaxBytes: 1 << 20}, nil)
	srv.WithCache(cache)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if advice := suggestAdvice(t, ts.URL, edit); len(advice) == 0 || len(advice[0].Done) == 0 {
		t.Fatalf("before the failure: advice %+v, want an already-done companion", advice)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d answers, want 1", cache.Len())
	}

	down.Store(true)
	later := edit
	later.At++ // a new cache key
	body, _ := json.Marshal(later)
	if status, resp := postSuggest(t, ts.URL, string(body)); status != http.StatusServiceUnavailable {
		t.Fatalf("/suggest during the failure = %d (%s), want 503", status, resp)
	}
	if cache.Len() != 1 {
		t.Fatalf("the failed request was cached: %d answers", cache.Len())
	}

	down.Store(false)
	body, _ = json.Marshal(edit)
	if status, resp := postSuggest(t, ts.URL, string(body)); status != http.StatusServiceUnavailable {
		t.Fatalf("/suggest after the backend recovered = %d (%s), want 503", status, resp)
	}
	for _, path := range []string{"/readyz", "/history?type=" + string(cachedWorld.Domain.SeedType)} {
		if status, resp := get(t, ts.URL+path); status != http.StatusServiceUnavailable {
			t.Errorf("GET %s after the failure = %d (%.80s), want 503", path, status, resp)
		}
	}
	_, err = sys.DetectErrors(1)
	var fe *source.FetchError
	if !errors.As(err, &fe) {
		t.Fatalf("DetectErrors over the failed store: %v, want a *source.FetchError", err)
	}
	if n := fetchErrors(err); n != 1 {
		t.Fatalf("DetectErrors over the failed store holds the *source.FetchError %d times, want once", n)
	}
}

// fetchErrors counts the *source.FetchError values in err's tree.
func fetchErrors(err error) int {
	n := 0
	if _, ok := err.(*source.FetchError); ok {
		n++
	}
	switch u := err.(type) {
	case interface{ Unwrap() error }:
		n += fetchErrors(u.Unwrap())
	case interface{ Unwrap() []error }:
		for _, e := range u.Unwrap() {
			n += fetchErrors(e)
		}
	}
	return n
}
