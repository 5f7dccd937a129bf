package source

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/obs/trace"
	"wiclean/internal/taxonomy"
)

// HTTP is the remote HistorySource: it fetches per-type histories from a
// MediaWiki-style endpoint serving the JSONL action format of
// internal/dump. This is the networked deployment shape the paper had to
// crawl around ("Due to the lack of an appropriate API, obtaining the
// Wikipedia data required crawling and parsing", §6.1) — and the backend
// the Fetcher's slots, deadlines and retries exist for: a remote history
// service is slow, rate-limited and occasionally down. A
// wiclean-server exposes the matching endpoint at /history (see
// HistoryHandler), so one WiClean instance can mine off another's store.
type HTTP struct {
	base       string
	reg        *taxonomy.Registry
	client     *http.Client
	maxRecords int // records one history answer may carry; maxHistoryRecords outside tests
}

// maxHistoryRecords is the most records FetchType reads from one /history
// answer before it fails the fetch permanently. It equals the Fetcher's
// LRU capacity (cacheActions): a longer history could not be cached, so
// every window would fetch it again, and an answer that never ends — a
// broken or hostile server — would otherwise grow the heap until the
// attempt deadline, once per attempt. Decoding allocated 3.2 MiB for
// 10,000 records of a test world (TestHTTPEndlessAnswersFail), about 330
// bytes a record, so a full-cap answer allocates on the order of 330 MiB.
const maxHistoryRecords = cacheActions

// maxSpanBytes bounds the span answer, a JSON object of two integers.
const maxSpanBytes = 1 << 10

// NewHTTP returns a source fetching from base (e.g.
// "http://host:8754/history"), resolving entity names against reg. A nil
// client uses http.DefaultClient; deadlines come from the context, which
// behind a Fetcher carries each attempt's own deadline.
func NewHTTP(base string, reg *taxonomy.Registry, client *http.Client) *HTTP {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTP{base: base, reg: reg, client: client, maxRecords: maxHistoryRecords}
}

// Registry returns the entity registry responses are resolved against.
func (s *HTTP) Registry() *taxonomy.Registry { return s.reg }

// FetchType GETs base?type=t&start=S&end=E and decodes the JSONL action
// records as they arrive, skipping those outside this client's entity
// universe. 4xx statuses are permanent errors (retrying an unknown type
// cannot help), as is an answer longer than maxHistoryRecords records;
// transport failures and 5xx statuses are transient.
func (s *HTTP) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	q := url.Values{}
	q.Set("type", string(t))
	q.Set("start", strconv.FormatInt(int64(w.Start), 10))
	q.Set("end", strconv.FormatInt(int64(w.End), 10))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"?"+q.Encode(), nil)
	if err != nil {
		return nil, Permanent(fmt.Errorf("source: building request: %w", err))
	}
	// Propagate the trace across the process boundary: the remote
	// wiclean-server joins this trace ID, so a chained mine exports one
	// stitched trace spanning both processes.
	trace.Inject(ctx, req.Header)
	trace.FromContext(ctx).SetAttr("backend", "http")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("source: fetching %q: %w", t, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("source: fetching %q: status %d: %s", t, resp.StatusCode, body)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, Permanent(err)
		}
		return nil, err
	}
	var out []action.Action
	n := 0
	err = dump.DecodeActions(resp.Body, func(rec dump.ActionRecord) error {
		if n++; n > s.maxRecords {
			return Permanent(fmt.Errorf("more than %d records", s.maxRecords))
		}
		if a, err := dump.ActionOf(rec, s.reg); err == nil {
			out = append(out, a)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("source: decoding %q: %w", t, err)
	}
	action.SortByTime(out)
	return out, nil
}

// Span GETs base?span=1 — the remote store's full revision window, which
// the CLIs need before they can split a timeline they never hold locally.
func (s *HTTP) Span(ctx context.Context) (action.Window, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"?span=1", nil)
	if err != nil {
		return action.Window{}, Permanent(err)
	}
	trace.Inject(ctx, req.Header)
	resp, err := s.client.Do(req)
	if err != nil {
		return action.Window{}, fmt.Errorf("source: fetching span: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return action.Window{}, fmt.Errorf("source: fetching span: status %d", resp.StatusCode)
	}
	var sp spanPayload
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxSpanBytes)).Decode(&sp); err != nil {
		return action.Window{}, fmt.Errorf("source: decoding span: %w", err)
	}
	return action.Window{Start: action.Time(sp.Start), End: action.Time(sp.End)}, nil
}

// spanPayload is the JSON body of the span endpoint.
type spanPayload struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// HistoryHandler serves the remote end of the HTTP source over any
// revision store:
//
//	GET ?type=T&start=S&end=E  →  JSONL dump.ActionRecord stream
//	GET ?span=1                →  {"start": ..., "end": ...}
//
// Mounted at /history on the plugin server, it turns every wiclean-server
// into a revision-history backend other miners can fetch from — the
// paper's missing "publicly available structured revisions database"
// (§6.1), served from whatever store this instance was loaded with. Once
// the store has failed a fetch (mining.FetchFailure), a type request
// answers 503: the store returns no actions from then on, and an empty
// history would read as a type nobody edited. A client that gives up
// mid-fetch does not fail the store: the fetch runs to its end without
// the request's cancellation.
func HistoryHandler(store mining.Store, span func() action.Window) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if q.Get("span") != "" {
			sp := span()
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(spanPayload{Start: int64(sp.Start), End: int64(sp.End)})
			return
		}
		// Serve the fetch under the request's context without its
		// cancellation: when the server's request wrapper put a span
		// there and the store is context-rebindable (source.Store), the
		// store-side fetch spans join the caller's trace — the receiving
		// half of cross-process stitching. A canceled fetch would be the store's
		// sticky failure, so a client that leaves mid-fetch (its own
		// attempt deadline, a closed connection) would fail every later
		// /suggest, /history and /readyz until restart.
		serving := store
		if cs, ok := store.(mining.ContextStore); ok {
			serving = cs.WithContext(context.WithoutCancel(r.Context()))
		}
		trace.FromContext(r.Context()).SetAttr("history_type", q.Get("type"))
		reg := serving.Registry()
		t := taxonomy.Type(q.Get("type"))
		if t == "" || !reg.Taxonomy().Has(t) {
			http.Error(w, fmt.Sprintf("unknown type %q", t), http.StatusNotFound)
			return
		}
		win := AllTime
		if v := q.Get("start"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				http.Error(w, "bad start", http.StatusBadRequest)
				return
			}
			win.Start = action.Time(n)
		}
		if v := q.Get("end"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				http.Error(w, "bad end", http.StatusBadRequest)
				return
			}
			win.End = action.Time(n)
		}
		as := serving.ActionsOf(reg.EntitiesOf(t), win)
		if err := mining.FetchFailure(serving); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		recs := make([]dump.ActionRecord, len(as))
		for i, a := range as {
			recs[i] = dump.RecordOf(a, reg)
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = dump.WriteActions(w, recs)
	})
}
