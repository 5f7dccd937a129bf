package source

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/taxonomy"
)

// newHistoryServer serves the test world's history over the /history wire
// protocol, exactly as a wiclean-server would.
func newHistoryServer(t *testing.T, w *testWorld) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(HistoryHandler(w.hist, func() action.Window { return w.span }))
	t.Cleanup(srv.Close)
	return srv
}

func TestHTTPRoundtrip(t *testing.T) {
	w := newTestWorld(t)
	srv := newHistoryServer(t, w)
	src := NewHTTP(srv.URL, w.reg, srv.Client())
	ctx := context.Background()

	for _, win := range []action.Window{w.span, {Start: 10, End: 14}} {
		got, err := src.FetchType(ctx, "FootballPlayer", win)
		if err != nil {
			t.Fatal(err)
		}
		want := w.hist.ActionsOf(w.players, win)
		if len(got) != len(want) {
			t.Fatalf("window %v: fetched %d actions over HTTP, want %d", win, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("window %v: action %d = %+v, want %+v", win, i, got[i], want[i])
			}
		}
	}
}

func TestHTTPSpan(t *testing.T) {
	w := newTestWorld(t)
	srv := newHistoryServer(t, w)
	src := NewHTTP(srv.URL, w.reg, srv.Client())

	got, err := src.Span(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != w.span {
		t.Fatalf("remote span = %v, want %v", got, w.span)
	}
}

func TestHTTPUnknownTypeIsPermanent(t *testing.T) {
	w := newTestWorld(t)
	srv := newHistoryServer(t, w)
	src := NewHTTP(srv.URL, w.reg, srv.Client())

	_, err := src.FetchType(context.Background(), "NoSuchType", w.span)
	if err == nil || !IsPermanent(err) {
		t.Fatalf("404 must be permanent, got %v", err)
	}
}

// TestHTTPEndlessAnswersFail serves answers that never end: a /history
// stream of valid records, and a span object whose first number never
// ends. Each call must fail on its own bound well before the short
// deadline — the history with a permanent error at the record cap, set
// small here through the unexported field — and allocate under 16 MiB:
// about 3.2 MiB for the history and 0.03 MiB for the span, against 61–77
// MiB and 128 MiB in the 300 ms when nothing bounds the reads.
func TestHTTPEndlessAnswersFail(t *testing.T) {
	w := newTestWorld(t)
	record, err := json.Marshal(dump.RecordOf(w.hist.ActionsOf(w.players, w.span)[0], w.reg))
	if err != nil {
		t.Fatal(err)
	}
	endless := func(head, chunk []byte) *HTTP {
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			_, _ = rw.Write(head)
			for r.Context().Err() == nil {
				if _, err := rw.Write(chunk); err != nil {
					return
				}
			}
		}))
		t.Cleanup(srv.Close)
		src := NewHTTP(srv.URL, w.reg, srv.Client())
		src.maxRecords = 10_000
		return src
	}
	history := endless(nil, append(record, '\n'))
	span := endless([]byte(`{"start":1`), bytes.Repeat([]byte("1"), 4096))
	for _, c := range []struct {
		name      string
		call      func(context.Context) error
		permanent bool
	}{
		{"history", func(ctx context.Context) error {
			_, err := history.FetchType(ctx, "FootballPlayer", w.span)
			return err
		}, true},
		{"span", func(ctx context.Context) error {
			_, err := span.Span(ctx)
			return err
		}, false},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.call(ctx)
		runtime.ReadMemStats(&after)
		deadline := ctx.Err()
		cancel()
		if err == nil || deadline != nil || IsPermanent(err) != c.permanent {
			t.Errorf("%s: err = %v (permanent %v, want %v), deadline hit: %v", c.name, err, IsPermanent(err), c.permanent, deadline)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Errorf("%s: allocated %.1f MiB, want under 16", c.name, float64(alloc)/(1<<20))
		}
	}
}

// TestHTTPRetryMasksServerHiccups puts the HTTP source behind a Fetcher
// against a server that fails its first two responses with 503 — the
// transient remote outage the retries exist for.
func TestHTTPRetryMasksServerHiccups(t *testing.T) {
	w := newTestWorld(t)
	var calls atomic.Int64
	inner := HistoryHandler(w.hist, func() action.Window { return w.span })
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(rw, "warming up", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer srv.Close()

	src := newFetcher(NewHTTP(srv.URL, w.reg, srv.Client()), nil, instant())

	got, err := src.FetchType(context.Background(), "FootballPlayer", w.span)
	if err != nil {
		t.Fatalf("retry failed to mask 503s: %v", err)
	}
	if want := w.hist.ActionsOf(w.players, w.span); len(got) != len(want) {
		t.Fatalf("got %d actions after retry, want %d", len(got), len(want))
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3 (two 503s + success)", calls.Load())
	}
}

// TestHTTPRetryDoesNotHammerOn404 pins the permanent/transient split end to
// end: a 404 from the wire must reach the caller after exactly one request.
func TestHTTPRetryDoesNotHammerOn404(t *testing.T) {
	w := newTestWorld(t)
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(rw, "no such type", http.StatusNotFound)
	}))
	defer srv.Close()

	src := newFetcher(NewHTTP(srv.URL, w.reg, srv.Client()), nil, instant())

	_, err := src.FetchType(context.Background(), "FootballPlayer", w.span)
	if err == nil || !IsPermanent(err) {
		t.Fatalf("want permanent error from 404, got %v", err)
	}
	if errors.Is(err, ErrExhausted) {
		t.Fatalf("a 404 is not retry exhaustion: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d requests for a permanent failure, want 1", calls.Load())
	}
}

// TestHistoryClientCancelIsNotSticky asks a /history endpoint, whose
// store reads a backend that takes 200 ms, with a client that gives up
// after 20 ms. The store's fetch must run to its end without the
// request's cancellation: a canceled fetch would be the store's sticky
// failure, and /suggest, /history and /readyz would answer 503 from then
// on.
func TestHistoryClientCancelIsNotSticky(t *testing.T) {
	w := newTestWorld(t)
	slow := WithFaults(NewMemory(w.hist), Faults{Latency: 200 * time.Millisecond}, nil)
	st := NewStore(context.Background(), NewFetcher(slow, nil))
	srv := httptest.NewServer(HistoryHandler(st, func() action.Window { return w.span }))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := NewHTTP(srv.URL, w.reg, srv.Client()).FetchType(ctx, "FootballPlayer", w.span); err == nil {
		t.Fatal("a 20-ms client read a 200-ms fetch")
	}
	srv.Close() // waits for the handler, and with it the store's fetch
	if err := st.FetchErr(); err != nil {
		t.Fatalf("a client that left mid-fetch failed the store: %v", err)
	}
	got := st.ActionsOfType("FootballPlayer", w.span)
	if want := w.hist.ActionsOf(w.players, w.span); len(got) != len(want) || len(got) == 0 {
		t.Fatalf("a later reader got %d actions, want %d", len(got), len(want))
	}
}

// FuzzHistoryRequest feeds raw query strings to HistoryHandler over the
// test world's history behind a Fetcher and a Store, as a wiclean-server
// with -source memory serves it. For every query it checks that
//   - the handler does not panic;
//   - the status is 200, 400 or 404;
//   - a 200 span response holds the world's span;
//   - a 200 type response decodes through dump.ReadActions, every action
//     has a source of the requested type and a time inside the requested
//     window, and it holds as many actions as the history does there.
func FuzzHistoryRequest(f *testing.F) {
	w := newTestWorld(f)
	h := HistoryHandler(NewStore(context.Background(), NewFetcher(NewMemory(w.hist), nil)),
		func() action.Window { return w.span })
	for _, q := range []string{
		"type=FootballPlayer&start=0&end=200",
		"type=FootballPlayer&start=10&end=14",
		"type=Agent",
		"type=Person&start=-9223372036854775808&end=9223372036854775807",
		"type=FootballClub&start=14&end=10",
		"type=FootballClub&start=+12&end=0x20",
		"span=1&type=FootballPlayer",
		"type=NoSuchType",
		"type=FootballPlayer&start=x",
		"type=FootballPlayer&end=99999999999999999999",
		"type=%zz&start=0",
		"type=FootballPlayer;start=3",
		"",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		req := httptest.NewRequest(http.MethodGet, "/history", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound:
			return
		default:
			t.Fatalf("query %q: status %d (%s)", raw, rec.Code, rec.Body.Bytes())
		}
		q := req.URL.Query()
		if q.Get("span") != "" {
			var sp spanPayload
			if err := json.Unmarshal(rec.Body.Bytes(), &sp); err != nil {
				t.Fatalf("query %q: span response %q: %v", raw, rec.Body.Bytes(), err)
			}
			if got := (action.Window{Start: action.Time(sp.Start), End: action.Time(sp.End)}); got != w.span {
				t.Fatalf("query %q: span %v, want %v", raw, got, w.span)
			}
			return
		}
		typ := taxonomy.Type(q.Get("type"))
		win := AllTime
		for _, b := range []struct {
			key string
			to  *action.Time
		}{{"start", &win.Start}, {"end", &win.End}} {
			if v := q.Get(b.key); v != "" {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("query %q: 200 for %s %q", raw, b.key, v)
				}
				*b.to = action.Time(n)
			}
		}
		recs, err := dump.ReadActions(bytes.NewReader(rec.Body.Bytes()))
		if err != nil {
			t.Fatalf("query %q: response does not decode: %v", raw, err)
		}
		for _, r := range recs {
			id, ok := w.reg.Lookup(r.Subject)
			if !ok || !w.reg.HasType(id, typ) {
				t.Fatalf("query %q: action of %q is not of type %q", raw, r.Subject, typ)
			}
			if !win.Contains(r.T) {
				t.Fatalf("query %q: action at %d outside %v", raw, r.T, win)
			}
		}
		if want := len(w.hist.ActionsOf(w.reg.EntitiesOf(typ), win)); len(recs) != want {
			t.Fatalf("query %q: %d actions, the history holds %d", raw, len(recs), want)
		}
	})
}
