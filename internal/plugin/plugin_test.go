package plugin

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wiclean/internal/core"
	"wiclean/internal/mining"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// The shared server: one small politics world, mined once and served
// over httptest so the tests exercise the real HTTP surface.
var (
	cachedTS    *httptest.Server
	cachedSys   *core.System
	cachedWorld *synth.World
	cachedCfg   windows.Config
)

// sharedServer builds the shared server on first use and returns its
// base URL.
func sharedServer(t *testing.T) string {
	t.Helper()
	if cachedTS == nil {
		d, err := synth.DomainByName("us-politicians")
		if err != nil {
			t.Fatal(err)
		}
		p := synth.DefaultParams(d, 100)
		w, err := synth.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := windows.Defaults()
		cfg.Mining = mining.PM(cfg.InitialTau)
		cfg.Mining.MaxAbstraction = 1
		sys := core.New(w.History, cfg)
		if _, err := sys.Mine(w.Seeds, d.SeedType, w.Span); err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(sys, 1)
		if err != nil {
			t.Fatal(err)
		}
		cachedTS = httptest.NewServer(srv.Handler())
		cachedSys, cachedWorld, cachedCfg = sys, w, cfg
	}
	return cachedTS.URL
}

// getJSON GETs url, requires a 200 and decodes the body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	code, body := get(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d (%s)", url, code, body)
	}
	if err := json.Unmarshal([]byte(body), out); err != nil {
		t.Fatalf("GET %s: decoding %q: %v", url, body, err)
	}
}

func TestNewServerRequiresMinedSystem(t *testing.T) {
	d, _ := synth.DomainByName("soccer")
	w, err := synth.Generate(synth.DefaultParams(d, 20))
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(w.History, windows.Defaults())
	if _, err := NewServer(sys, 1); err == nil {
		t.Fatal("unmined system should be rejected")
	}
}

func TestClientHealthAndPatterns(t *testing.T) {
	url := sharedServer(t)
	var health struct {
		OK bool `json:"ok"`
	}
	getJSON(t, url+"/healthz", &health)
	if !health.OK {
		t.Fatal("server should be healthy")
	}
	var patterns []PatternInfo
	getJSON(t, url+"/patterns", &patterns)
	if len(patterns) == 0 {
		t.Fatal("no patterns served")
	}
	for _, p := range patterns {
		if p.Pattern == "" || p.Frequency <= 0 || p.WidthDays <= 0 {
			t.Errorf("incomplete pattern: %+v", p)
		}
		if !strings.Contains(p.Dot, "digraph") {
			t.Error("DOT rendering missing")
		}
	}
}

func TestClientErrors(t *testing.T) {
	var errs []ErrorInfo
	getJSON(t, sharedServer(t)+"/errors", &errs)
	if len(errs) == 0 {
		t.Fatal("no signaled errors despite injected ones")
	}
	for _, e := range errs {
		if len(e.Suggestions) == 0 {
			t.Errorf("error without suggestions: %+v", e)
		}
	}
}

func TestClientSuggest(t *testing.T) {
	advices := suggestAdvice(t, sharedServer(t), SuggestRequest{
		Subject: "Senator 0000",
		Op:      "+",
		Label:   "member_of",
		Object:  "Committee 0003",
		At:      1300000,
	})
	if len(advices) == 0 {
		t.Fatal("no advice for a pattern-matching edit")
	}
	if len(advices[0].Missing) == 0 {
		t.Error("advice without suggested completions")
	}
}

func TestClientSuggestErrors(t *testing.T) {
	url := sharedServer(t)
	for _, c := range []struct {
		req  SuggestRequest
		what string
	}{
		{SuggestRequest{Subject: "Nobody", Op: "+", Label: "x", Object: "Committee 0000"}, "unknown subject"},
		{SuggestRequest{Subject: "Senator 0000", Op: "+", Label: "x", Object: "Nothing"}, "unknown object"},
	} {
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if code, _ := postSuggest(t, url, string(body)); code == http.StatusOK {
			t.Errorf("%s should surface as an error, got %d", c.what, code)
		}
	}
}

func TestClientPeriodic(t *testing.T) {
	// Contract: well-formed (possibly empty) list over a one-year world.
	var periodic []PeriodicInfo
	getJSON(t, sharedServer(t)+"/periodic", &periodic)
}
