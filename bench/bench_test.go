package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"wiclean/internal/analysis/leakcheck"
)

// TestMain fails the package if a test leaves a goroutine behind: the
// load generator's senders, the loopback server and the client's
// connections must all be gone when a phase returns.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// tiny returns the named workload at a size that runs in about a second.
func tiny(name string) workload {
	switch name {
	case "walk":
		return &batch{seeds: 20, spanDays: 112}
	case "serve-cold":
		return &serve{seeds: 20, spanDays: 112, rate: 200}
	}
	return nil
}

var workloadNames = []string{"walk", "serve-cold"}

func tinyOptions(t *testing.T, trace bool) options {
	return options{seed: 3, measure: 300 * time.Millisecond, trace: trace, setupGroups: 1, dir: t.TempDir()}
}

// TestWorkloadsTiny runs every workload traced, which measures it untraced
// too, and checks the result carries every per-layer metric and passes. No
// test that runs a workload is parallel: a workload restarts the process's
// peak-RSS counter before every operation, so two at once would spoil each
// other's rss_growth_mb.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rep, err := execute(context.Background(), tiny(name), tinyOptions(t, true))
			if err != nil {
				t.Fatal(err)
			}
			r := rep.result
			if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %s", r.Correct, r.Attempted, r.Failed, rep.facts.FirstError)
			}
			if len(r.Metrics) != len(perLayerMetrics) {
				t.Errorf("%d metrics, want the %d per-layer ones", len(r.Metrics), len(perLayerMetrics))
			}
			if got := r.Metrics["bench.residual_ratio"].Value; got > maxResidual {
				t.Errorf("residual ratio %.3f over %.2f", got, maxResidual)
			}
			if rep.self[tiny(name).root()] < 0 {
				t.Errorf("negative self time for %s", tiny(name).root())
			}
			if name == "serve-cold" && !(r.Metrics["source.pull_busy_s"].Value > 0 && r.Metrics["source.pull_share"].Value < 1) {
				t.Errorf("cache misses recorded no store pulls: busy %v, share %v",
					r.Metrics["source.pull_busy_s"].Value, r.Metrics["source.pull_share"].Value)
			}
		})
	}
}

// TestEndToEndOutput checks an untraced run reports every end-to-end
// metric, each above zero.
func TestEndToEndOutput(t *testing.T) {
	rep, err := execute(context.Background(), tiny("serve-cold"), tinyOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.result.Metrics) != len(endToEndMetrics) {
		t.Fatalf("metrics %v", rep.result.Metrics)
	}
	for _, m := range endToEndMetrics {
		if v := rep.result.Metrics[m.name]; v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("%s = %+v", m.name, v)
		}
	}
}

// corruptGolden is serve-cold with one expected probe answer planted wrong.
type corruptGolden struct{ *serve }

func (c corruptGolden) setup(seed uint64, dir string) error {
	err := c.serve.setup(seed, dir)
	c.golden[0] = []byte("not the answer")
	return err
}

func TestGoldenMismatchFails(t *testing.T) {
	rep, err := execute(context.Background(), corruptGolden{tiny("serve-cold").(*serve)}, tinyOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if rep.result.Correct || rep.result.Failed == 0 {
		t.Fatalf("a planted golden mismatch passed: %+v", rep.result)
	}
}

// TestGeneratorStall checks the generator is open loop: a handler stalled
// for 100ms holds back the requests queued behind it, and their latency,
// timed from when they were due, shows it.
func TestGeneratorStall(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(100 * time.Millisecond)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	step := loadStep{
		url: srv.URL, due: due, conns: 1,
		body: func(int) []byte { return []byte("{}") },
		check: func(i, status int, _ []byte) error {
			if i%3 == 0 {
				return errFailed
			}
			return nil
		},
	}
	res := step.run(context.Background())
	if res.sent != len(due) || res.sent != res.ok+res.failed || res.failed != 4 {
		t.Fatalf("sent %d ok %d failed %d", res.sent, res.ok, res.failed)
	}
	// With one connection the requests go out in order; the one due at
	// 10ms cannot leave before the stalled first one returns at ~100ms.
	if res.late[1] < 80*time.Millisecond || res.latency[1] < 80*time.Millisecond {
		t.Errorf("request behind the stall: late %v, latency %v", res.late[1], res.latency[1])
	}
	if last := res.latency[len(res.latency)-1]; last > 80*time.Millisecond {
		t.Errorf("the backlog did not drain: last latency %v", last)
	}
}

var errFailed = errors.New("planted failure")

func TestArrivalsDeterministic(t *testing.T) {
	a, b := arrivals(7, 0, 1000, 2*time.Second), arrivals(7, 0, 1000, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if reflect.DeepEqual(a, arrivals(8, 0, 1000, 2*time.Second)) || reflect.DeepEqual(a, arrivals(7, 1, 1000, 2*time.Second)) {
		t.Fatal("two seeds or streams gave one schedule")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 2s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}
}

// TestSpeedometer checks the kernel runs on its period from the start and
// that a time scales inversely to the kernel's.
func TestSpeedometer(t *testing.T) {
	s := startSpeedometer()
	first := s.read()
	time.Sleep(5 * speedPeriod)
	last := s.read()
	s.close()
	if first.runs < 1 || last.runs <= first.runs || !(last.since(first) > 0) || last.since(last) != last.last {
		t.Fatalf("readings %+v then %+v", first, last)
	}
	if got := scale(10*time.Millisecond, 2*referenceKernel); got != 5*time.Millisecond {
		t.Errorf("10ms measured while the kernel ran at half speed scaled to %v, want 5ms", got)
	}
}

func TestSelfTimeAndResidual(t *testing.T) {
	spans := []spanRecord{
		{Name: "iteration", Span: 1, Start: 0, End: 100},
		{Name: "a", Span: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", Span: 3, Parent: 1, Start: 30, End: 60}, // overlaps a: [10,60) is covered once
		{Name: "f", Span: 4, Parent: 2, Start: 15, End: 20},
		{Name: "f", Span: 5, Parent: 2, Start: 18, End: 25},
		{Name: "iteration", Span: 6, Start: 200, End: 300},
		{Name: "c", Span: 7, Parent: 6, Start: 200, End: 290},
		{Name: "d", Span: 8, Parent: 6, Start: 280, End: 320}, // runs past its parent: clipped at 300
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 50, 2: 20, 3: 30, 4: 5, 5: 7, 6: 0, 7: 90, 8: 40}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	byName := selfByName(spans, self)
	if byName["f"] != 12 || byName["iteration"] != 50 {
		t.Errorf("self by name %v", byName)
	}
	if r := residualRatio(spans, self, "iteration"); r != 0.25 {
		t.Errorf("residual ratio %v, want 50/200", r)
	}
}

// TestBenchmarkJSON checks the benchmark's definition at the repository
// root names exactly the workloads and metrics this command runs and
// prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if newWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEndMetrics)
	check("per_layer", def.PerLayer, perLayerMetrics)
}
