package plugin

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wiclean/internal/core"
	"wiclean/internal/mining"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// newOpsServer mines a small soccer world with a metrics registry and a
// tracer on that registry attached, as wiclean-server wires them, and
// serves it with the debug surface enabled. The server is built once and
// shared: mining dominates test time and the ops tests only read.
var (
	opsTS  *httptest.Server
	opsReg *obs.Registry
)

func newOpsServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	if opsTS != nil {
		return opsTS, opsReg
	}
	d, err := synth.DomainByName("soccer")
	if err != nil {
		t.Fatal(err)
	}
	w, err := synth.Generate(synth.DefaultParams(d, 60))
	if err != nil {
		t.Fatal(err)
	}
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = 1
	reg := obs.NewRegistry()
	tracer := trace.New(trace.Config{Service: "wiclean-server", Registry: reg})
	sys := core.New(w.History, cfg).WithObs(reg).WithTracer(tracer)
	if _, err := sys.Mine(w.Seeds, d.SeedType, w.Span); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.WithTracer(tracer).EnableDebug()
	opsTS = httptest.NewServer(srv.Handler())
	opsReg = reg
	return opsTS, opsReg
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newOpsServer(t)

	// Exercise the instrumented endpoints so HTTP metrics accumulate.
	for _, p := range []string{"/patterns", "/errors", "/healthz"} {
		if code, _ := get(t, ts.URL+p); code != http.StatusOK {
			t.Fatalf("GET %s = %d", p, code)
		}
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	// The acceptance set: mining, refinement, detection, and per-endpoint
	// HTTP latency metrics must all be present after a mined system served
	// a few requests.
	for _, want := range []string{
		obs.MiningPatternsAdmitted,
		obs.WindowsRefinementSteps,
		obs.DetectPartials,
		obs.HTTPRequestSeconds + `_bucket{path="/patterns"`,
		obs.HTTPRequests + `{path="/healthz",code="2xx"}`,
		"# TYPE " + obs.HTTPRequestSeconds + " histogram",
		obs.SpanSeconds + `_count{span="mining.grow"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestVersionAndHealthEndpoints(t *testing.T) {
	ts, _ := newOpsServer(t)

	code, body := get(t, ts.URL+"/version")
	if code != http.StatusOK {
		t.Fatalf("GET /version = %d", code)
	}
	var v VersionInfo
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("version JSON: %v", err)
	}
	if v.Module == "" || v.GoVersion == "" {
		t.Errorf("incomplete version info: %+v", v)
	}
	if v.UptimeSeconds < 0 {
		t.Errorf("negative uptime: %v", v.UptimeSeconds)
	}

	code, body = get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", code)
	}
	var h struct {
		OK            bool    `json:"ok"`
		Patterns      int     `json:"patterns"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if !h.OK || h.Patterns == 0 {
		t.Errorf("unhealthy mined server: %+v", h)
	}
}

func TestDebugSurface(t *testing.T) {
	ts, _ := newOpsServer(t)

	code, body := get(t, ts.URL+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/vars = %d", code)
	}
	if !strings.Contains(body, "wiclean") {
		t.Error("/debug/vars missing the wiclean metrics snapshot")
	}
	if code, _ := get(t, ts.URL+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline = %d", code)
	}
}

func TestDebugSurfaceOffByDefault(t *testing.T) {
	url := sharedServer(t) // the shared non-debug server from plugin_test.go
	if code, _ := get(t, url+"/debug/pprof/cmdline"); code == http.StatusOK {
		t.Error("pprof should not be mounted without EnableDebug")
	}
}

func TestPipelineCountersPopulated(t *testing.T) {
	_, reg := newOpsServer(t)
	s := reg.Snapshot()
	for _, name := range []string{
		obs.MiningRuns,
		obs.MiningPatternsAdmitted,
		obs.MiningCandidates,
		obs.WindowsRefinementSteps,
		obs.WindowsMined,
		obs.DetectRuns,
	} {
		if s.Counters[name] == 0 {
			t.Errorf("counter %s = 0 after a full mine+detect", name)
		}
	}
	if s.Gauges[obs.WindowsTau] <= 0 {
		t.Errorf("tau gauge = %v, want > 0", s.Gauges[obs.WindowsTau])
	}
	if s.Histograms[obs.MiningSeconds].Count == 0 {
		t.Error("per-job mining duration histogram is empty")
	}
	for _, name := range []string{"windows.window", "mining.mine", "mining.grow"} {
		if s.Spans[name].Count == 0 {
			t.Errorf("span summary %s missing", name)
		}
	}
}
