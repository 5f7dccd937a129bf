package plugin

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestGateWarmingThenReady pins the listen-before-mining lifecycle:
// while warming, liveness (/healthz) answers 200 but readiness
// (/readyz) and the API answer 503; SetReady flips every endpoint live
// without touching the listener.
func TestGateWarmingThenReady(t *testing.T) {
	gate := NewGate()
	ts := httptest.NewServer(gate)
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"ready":false`) {
		t.Fatalf("warming /healthz = %d %q", code, body)
	}
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("warming /readyz = %d", code)
	}
	var ready struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(body), &ready); err != nil || ready.Ready || ready.Reason == "" {
		t.Fatalf("warming /readyz body = %q (err %v)", body, err)
	}
	if code, _ := get("/patterns"); code != http.StatusServiceUnavailable {
		t.Fatalf("warming API = %d, want 503", code)
	}

	gate.SetReady(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("live:" + r.URL.Path))
	}))
	if code, body := get("/readyz"); code != http.StatusOK || body != "live:/readyz" {
		t.Fatalf("ready /readyz = %d %q", code, body)
	}
	if code, body := get("/patterns"); code != http.StatusOK || body != "live:/patterns" {
		t.Fatalf("ready API = %d %q", code, body)
	}
}

// TestWarmingRetryAfter pins the back-off contract of the warming
// surface: both 503 shapes — /readyz and the catch-all — carry a
// Retry-After hint (the same helper the serving layer's shed 429 uses),
// so a client that respects the header backs off instead of hammering a
// warming server.
func TestWarmingRetryAfter(t *testing.T) {
	gate := NewGate()
	ts := httptest.NewServer(gate)
	defer ts.Close()

	for _, path := range []string{"/readyz", "/patterns", "/suggest"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("warming %s = %d, want 503", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != strconv.Itoa(warmingRetryAfter) {
			t.Fatalf("warming %s Retry-After = %q, want %d", path, got, warmingRetryAfter)
		}
	}
}

// TestServerReadyz drives the real handler's readiness endpoint: a
// mined server reports ready with its pattern and report counts.
func TestServerReadyz(t *testing.T) {
	resp, err := http.Get(sharedServer(t) + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d", resp.StatusCode)
	}
	var body struct {
		Ready    bool `json:"ready"`
		Patterns int  `json:"patterns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Ready || body.Patterns == 0 {
		t.Fatalf("/readyz body = %+v", body)
	}
}
