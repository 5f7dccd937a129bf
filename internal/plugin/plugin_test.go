package plugin

import (
	"net/http/httptest"
	"strings"
	"testing"

	"wiclean/internal/core"
	"wiclean/internal/mining"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// testServer builds one small politics server for all tests, exposed over
// httptest so the typed Client exercises the real HTTP surface.
var (
	cachedSrv   *Server
	cachedTS    *httptest.Server
	cachedSys   *core.System
	cachedWorld *synth.World
	cachedCfg   windows.Config
)

func getClient(t *testing.T) *Client {
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
		cachedSrv = srv
		cachedTS = httptest.NewServer(srv.Handler())
		cachedSys, cachedWorld, cachedCfg = sys, w, cfg
	}
	return NewClient(cachedTS.URL)
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
	c := getClient(t)
	if !c.Healthy() {
		t.Fatal("server should be healthy")
	}
	patterns, err := c.Patterns()
	if err != nil {
		t.Fatal(err)
	}
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
	c := getClient(t)
	errs, err := c.Errors()
	if err != nil {
		t.Fatal(err)
	}
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
	c := getClient(t)
	advices, err := c.Suggest(SuggestRequest{
		Subject: "Senator 0000",
		Op:      "+",
		Label:   "member_of",
		Object:  "Committee 0003",
		At:      1300000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(advices) == 0 {
		t.Fatal("no advice for a pattern-matching edit")
	}
	if len(advices[0].Missing) == 0 {
		t.Error("advice without suggested completions")
	}
}

func TestClientSuggestErrors(t *testing.T) {
	c := getClient(t)
	if _, err := c.Suggest(SuggestRequest{Subject: "Nobody", Op: "+", Label: "x", Object: "Committee 0000"}); err == nil {
		t.Error("unknown subject should surface as an error")
	}
	if _, err := c.Suggest(SuggestRequest{Subject: "Senator 0000", Op: "+", Label: "x", Object: "Nothing"}); err == nil {
		t.Error("unknown object should surface as an error")
	}
}

func TestClientPeriodic(t *testing.T) {
	c := getClient(t)
	// Contract: well-formed (possibly empty) list over a one-year world.
	if _, err := c.Periodic(); err != nil {
		t.Fatal(err)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens here
	if c.Healthy() {
		t.Fatal("dead server reported healthy")
	}
	if _, err := c.Patterns(); err == nil {
		t.Fatal("dead server should error")
	}
	if _, err := c.Suggest(SuggestRequest{}); err == nil {
		t.Fatal("dead server should error on POST")
	}
}
