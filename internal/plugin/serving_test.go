package plugin

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"wiclean/internal/core"
	"wiclean/internal/obs"
)

// servingSystem warm-starts a fresh core.System over the shared mined
// world — same store, same outcome, its own metrics registry — so
// serving-layer tests get isolated counters without re-mining.
func servingSystem(t *testing.T, reg *obs.Registry) *core.System {
	t.Helper()
	sharedServer(t) // populates the cached mined world
	sys := core.New(cachedWorld.History, cachedCfg)
	if reg != nil {
		sys.WithObs(reg)
	}
	if err := sys.UseOutcome(cachedSys.Outcome()); err != nil {
		t.Fatal(err)
	}
	return sys
}

// postSuggestResp posts one /suggest body and keeps the full response
// (suggestBody and postSuggest live in warm_test.go); the serving tests
// need headers — Retry-After — not just the status.
func postSuggestResp(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/suggest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestSuggestIngressHardening is the table test for the fixed ingress
// bugs: oversized bodies answer 413, malformed JSON and trailing
// garbage answer 400 (both used to be silently accepted), invalid ops
// answer 400 instead of being treated as additions, and unknown
// entities answer 404.
func TestSuggestIngressHardening(t *testing.T) {
	sys := servingSystem(t, nil)
	srv, err := NewServer(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"valid", suggestBody, http.StatusOK},
		{"valid with empty op", `{"subject":"Senator 0000","label":"member_of","object":"Committee 0003","at":1300000}`, http.StatusOK},
		{"trailing JSON value", suggestBody + `{"subject":"x"}`, http.StatusBadRequest},
		{"trailing garbage", suggestBody + " leftover", http.StatusBadRequest},
		{"malformed JSON", `{"subject":`, http.StatusBadRequest},
		{"oversized body", `{"subject":"` + strings.Repeat("a", maxSuggestBody) + `"}`, http.StatusRequestEntityTooLarge},
		{"invalid op", `{"subject":"Senator 0000","op":"*","label":"member_of","object":"Committee 0003"}`, http.StatusBadRequest},
		{"unknown subject", `{"subject":"Nobody","op":"+","label":"member_of","object":"Committee 0003"}`, http.StatusNotFound},
		{"unknown object", `{"subject":"Senator 0000","op":"+","label":"member_of","object":"Nothing"}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postSuggestResp(t, ts.URL, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %q)", resp.StatusCode, tc.want, body)
			}
		})
	}
}

// TestSuggestRateShed pins the limiter stage: requests beyond the burst
// answer 429 with a positive integer Retry-After, the shed counter
// carries reason="rate", and requests within the budget still succeed.
func TestSuggestRateShed(t *testing.T) {
	reg := obs.NewRegistry()
	sys := servingSystem(t, reg)
	srv, err := NewServer(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	srv.WithLimiter(NewLimiter(LimiterConfig{Rate: 1, Burst: 2}, reg).
		withClock(func() time.Time { return now }))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if resp, body := postSuggestResp(t, ts.URL, suggestBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("in-budget request %d = %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, _ := postSuggestResp(t, ts.URL, suggestBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("shed Retry-After = %q, want \"1\"", ra)
	}
	shed := reg.Snapshot().Counters[obs.Labeled(obs.HTTPShed, "reason", "rate")]
	if shed != 1 {
		t.Fatalf("rate shed counter = %d, want 1", shed)
	}
}

// TestSuggestQueueShed pins the bounded accept queue: with every slot
// occupied a request is shed with 429/Retry-After and reason="queue";
// once a slot frees the same request succeeds.
func TestSuggestQueueShed(t *testing.T) {
	reg := obs.NewRegistry()
	sys := servingSystem(t, reg)
	srv, err := NewServer(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := NewAcceptQueue(1, reg)
	srv.WithQueue(q)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if !q.Acquire() { // occupy the only slot
		t.Fatal("empty queue rejected")
	}
	resp, _ := postSuggestResp(t, ts.URL, suggestBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full-queue request = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("queue shed carries no Retry-After")
	}
	if shed := reg.Snapshot().Counters[obs.Labeled(obs.HTTPShed, "reason", "queue")]; shed != 1 {
		t.Fatalf("queue shed counter = %d, want 1", shed)
	}
	q.Release()
	if resp, body := postSuggestResp(t, ts.URL, suggestBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("freed-queue request = %d (%s)", resp.StatusCode, body)
	}
}

// TestSuggestCacheByteIdentity is the acceptance check for the response
// cache: with the cache on, a repeated request hits; the bytes served
// from cache, from a cache-off server, and after a fingerprint flip are
// all identical — caching is invisible except in latency.
func TestSuggestCacheByteIdentity(t *testing.T) {
	reg := obs.NewRegistry()
	sys := servingSystem(t, reg)
	srv, err := NewServer(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.WithFingerprint("fp-A").
		WithCache(NewResponseCache(CacheConfig{MaxBytes: 1 << 20}, reg))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, computed := postSuggestResp(t, ts.URL, suggestBody)
	if len(computed) == 0 || computed[len(computed)-1] != '\n' {
		t.Fatalf("computed body %q should be newline-terminated JSON", computed)
	}
	_, cached := postSuggestResp(t, ts.URL, suggestBody)
	if !bytes.Equal(computed, cached) {
		t.Fatalf("cache hit changed bytes:\n%q\n%q", computed, cached)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.SuggestCacheHits] != 1 {
		t.Fatalf("cache hits = %d, want 1", snap.Counters[obs.SuggestCacheHits])
	}

	// The empty-op spelling of the same edit shares the entry.
	noOp := strings.Replace(suggestBody, `"op":"+",`, "", 1)
	if _, b := postSuggestResp(t, ts.URL, noOp); !bytes.Equal(computed, b) {
		t.Fatalf("op spellings diverge:\n%q\n%q", computed, b)
	}
	if got := reg.Snapshot().Counters[obs.SuggestCacheHits]; got != 2 {
		t.Fatalf("cache hits after op-folded request = %d, want 2", got)
	}

	// Cache off: byte-identical.
	off, err := NewServer(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	if _, b := postSuggestResp(t, tsOff.URL, suggestBody); !bytes.Equal(computed, b) {
		t.Fatalf("cache on vs off bytes differ:\n%q\n%q", computed, b)
	}

	// A fingerprint flip makes every old entry unreachable: the next
	// request misses, recomputes, and still serves identical bytes.
	misses := reg.Snapshot().Counters[obs.SuggestCacheMisses]
	srv.WithFingerprint("fp-B")
	if _, b := postSuggestResp(t, ts.URL, suggestBody); !bytes.Equal(computed, b) {
		t.Fatalf("post-flip bytes differ:\n%q\n%q", computed, b)
	}
	if got := reg.Snapshot().Counters[obs.SuggestCacheMisses]; got != misses+1 {
		t.Fatalf("fingerprint flip did not miss: misses %d -> %d", misses, got)
	}
}

// TestSwapServesNewModelWithoutDrops is the hot-reload acceptance test:
// under continuous /suggest load, Swap flips the fingerprint and every
// request — before, during, after — answers 200; responses for the
// byte-identical model stay byte-identical across the swap.
func TestSwapServesNewModelWithoutDrops(t *testing.T) {
	reg := obs.NewRegistry()
	sys := servingSystem(t, reg)
	srv, err := NewServer(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.WithFingerprint("fp-A").
		WithCache(NewResponseCache(CacheConfig{MaxBytes: 1 << 20}, reg))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, before := postSuggestResp(t, ts.URL, suggestBody)

	stop := make(chan struct{})
	errs := make(chan string, 64)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/suggest", "application/json",
					strings.NewReader(suggestBody))
				if err != nil {
					select {
					case errs <- err.Error():
					default:
					}
					continue
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case errs <- resp.Status:
					default:
					}
				} else if !bytes.Equal(b, before) {
					select {
					case errs <- "response bytes diverged mid-swap":
					default:
					}
				}
			}
		}()
	}

	next := servingSystem(t, reg)
	if err := srv.Swap(next, "fp-B"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let load overlap the post-swap state
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("request failed around swap: %s", e)
	}

	if got := srv.Fingerprint(); got != "fp-B" {
		t.Fatalf("fingerprint after swap = %q", got)
	}
	if _, after := postSuggestResp(t, ts.URL, suggestBody); !bytes.Equal(before, after) {
		t.Fatalf("identical model served different bytes after swap:\n%q\n%q", before, after)
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.ReloadTotal] != 1 || snap.Counters[obs.ReloadErrors] != 0 {
		t.Fatalf("reload counters = %d ok / %d errors, want 1/0",
			snap.Counters[obs.ReloadTotal], snap.Counters[obs.ReloadErrors])
	}
}

// TestReloadOnSIGHUP drives the operator path end to end: a SIGHUP to
// the process triggers load and swaps the fingerprint; a failing load
// is counted and leaves the served model untouched.
func TestReloadOnSIGHUP(t *testing.T) {
	reg := obs.NewRegistry()
	sys := servingSystem(t, reg)
	srv, err := NewServer(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.WithFingerprint("fp-boot")

	var mu sync.Mutex
	fail := false
	load := func() (*core.System, string, error) {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			return nil, "", io.ErrUnexpectedEOF
		}
		return servingSystem(t, reg), "fp-hup", nil
	}
	stopReload := srv.ReloadOnSIGHUP(load, nil)
	defer stopReload()

	hup := func() {
		t.Helper()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
	}
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	hup()
	waitFor(func() bool { return srv.Fingerprint() == "fp-hup" }, "SIGHUP swap")

	mu.Lock()
	fail = true
	mu.Unlock()
	hup()
	waitFor(func() bool {
		return reg.Snapshot().Counters[obs.ReloadErrors] == 1
	}, "failed reload to be counted")
	if got := srv.Fingerprint(); got != "fp-hup" {
		t.Fatalf("failed reload changed the served fingerprint to %q", got)
	}
}

// TestPeriodicRunsNoDetection checks that /periodic reads the error
// reports the state already holds: a request leaves
// wiclean_detect_runs_total where building the state left it, and
// answers what the mined test server answers.
func TestPeriodicRunsNoDetection(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServer(servingSystem(t, reg), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	before := reg.Counter(obs.DetectRuns).Value()
	if before == 0 {
		t.Fatal("building the serving state ran no detection")
	}
	var got, want []PeriodicInfo
	getJSON(t, ts.URL+"/periodic", &got)
	if after := reg.Counter(obs.DetectRuns).Value(); after != before {
		t.Errorf("a /periodic request ran detection: %s %d before, %d after", obs.DetectRuns, before, after)
	}
	getJSON(t, sharedServer(t)+"/periodic", &want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/periodic = %v, want the mined server's %v", got, want)
	}
}
