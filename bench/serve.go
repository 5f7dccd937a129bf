package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wiclean/internal/core"
	"wiclean/internal/dump"
	"wiclean/internal/mining"
	"wiclean/internal/model"
	"wiclean/internal/obs"
	"wiclean/internal/plugin"
	"wiclean/internal/windows"
)

// A serve phase runs rounds of roundLen. A round spends warmShare of its
// time on warm starts, at least one, and the rest, at least minLoad, on a
// load step against the last server it started. Short rounds spread warm
// starts and load steps evenly over the whole phase, so both see the same
// mix of the host's speed states.
const (
	roundLen  = 1500 * time.Millisecond
	warmShare = 0.25
	minLoad   = 50 * time.Millisecond
)

// probes is how many edits setup asks a server built from the generated
// world, without a response cache, to answer. After each load step the
// warm-started server must give the same answers, byte for byte.
const probes = 16

// serve is a workload that warm-starts a /suggest server from data files
// and a saved model, then drives it open loop over a loopback socket. Every
// request is an (edit, at) pair never sent before, so it misses the
// response cache and runs the assistant and its source fetches.
type serve struct {
	seeds, spanDays int
	rate            float64 // requests per second in the load steps

	// Set by setup.
	dir    string
	seed   uint64
	reqs   []plugin.SuggestRequest // real edits of seed entities, in an order drawn from the seed
	golden [][]byte                // the reference server's answers to the first probes edits
}

func (s *serve) params() any {
	return map[string]any{
		"world_seeds": s.seeds, "span_days": s.spanDays, "world_seed": worldSeed,
		"rate_per_s": s.rate, "connections": runtime.NumCPU(), "round_s": roundLen.Seconds(),
		"response_cache_bytes": responseCacheBytes, "probes": probes,
	}
}

func (s *serve) root() string { return "warmstart" }

// responseCacheBytes is wiclean-server's default /suggest response cache.
const responseCacheBytes = 16 << 20

// setup generates the world, writes the universe and the action log
// (entity by entity, in an order drawn from seed), mines the model with
// the production configuration and saves it. It also records the answers
// of a server built from the generated world, without a response cache, to
// the probe edits.
func (s *serve) setup(seed uint64, dir string) error {
	w, err := genWorld(s.seeds, s.spanDays)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(seed, 0x66696c65)) // a stream of its own, apart from the arrival schedule
	recs := shuffleGroups(w.History.Records(), func(r dump.ActionRecord) string { return r.Subject }, rng)
	if err := writeUniverse(dir, w.Reg); err != nil {
		return err
	}
	if err := writeFile(dir, actionsFile, func(f *os.File) error { return dump.WriteActions(f, recs) }); err != nil {
		return err
	}

	cfg := productionConfig()
	span := w.History.Span()
	store, err := buildStore(w.History, w.Reg, nil, nil)
	if err != nil {
		return err
	}
	o, err := windows.Run(store, w.Seeds, w.Domain.SeedType, span, cfg)
	if err != nil {
		return err
	}
	prov, err := model.Fingerprint(w.Reg, span, cfg)
	if err != nil {
		return err
	}
	if err := model.Save(filepath.Join(dir, modelFile), model.Snapshot(o, w.Reg, prov), nil); err != nil {
		return err
	}

	s.dir, s.seed = dir, seed
	s.reqs = s.reqs[:0]
	seen := map[plugin.SuggestRequest]bool{}
	for _, a := range w.History.ActionsOf(w.Seeds, span) {
		r := plugin.SuggestRequest{
			Subject: w.Reg.Name(a.Edge.Src), Op: a.Op.String(), Label: string(a.Edge.Label),
			Object: w.Reg.Name(a.Edge.Dst), At: int64(a.T),
		}
		if !seen[r] {
			seen[r] = true
			s.reqs = append(s.reqs, r)
		}
	}
	if len(s.reqs) < probes {
		return fmt.Errorf("the world yields %d distinct edits of seed entities, the probes need %d", len(s.reqs), probes)
	}
	rng.Shuffle(len(s.reqs), func(i, j int) { s.reqs[i], s.reqs[j] = s.reqs[j], s.reqs[i] })

	sys := core.New(store, cfg)
	sys.UseOutcome(o)
	ref, err := plugin.NewServer(sys, 0)
	if err != nil {
		return err
	}
	s.golden = make([][]byte, probes)
	for i := range s.golden {
		status, body := suggest(ref.Handler(), mustJSON(s.reqs[i]))
		if status != http.StatusOK {
			return fmt.Errorf("probe %d: status %d: %s", i, status, body)
		}
		s.golden[i] = body
	}
	return nil
}

// suggest posts one /suggest body to h in process.
func suggest(h http.Handler, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/suggest", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and numbers are encoded
	}
	return b
}

// warmStart takes the server from files on disk to a ready handler the way
// wiclean-server -data -model does: read and ingest the action log,
// fingerprint the world, load and verify the model, build the server with
// its default serving layer.
func (s *serve) warmStart(root *active, tr *tracer, metrics *obs.Registry) (*plugin.Server, int, error) {
	sp := tr.stageOf(root.ref(), "dump.read")
	reg, err := readUniverse(s.dir)
	var recs []dump.ActionRecord
	if err == nil {
		recs, err = readFile(s.dir, actionsFile, func(f *os.File) ([]dump.ActionRecord, error) { return dump.ReadActions(f) })
	}
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.stageOf(root.ref(), "dump.ingest")
	h := dump.NewHistory(reg)
	skipped := h.IngestRecords(recs)
	sp.end()
	if skipped > 0 {
		return nil, 0, fmt.Errorf("%d action records name unknown entities", skipped)
	}
	sp = tr.stageOf(root.ref(), "source.build")
	store, err := buildStore(h, reg, metrics, tr)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	cfg := productionConfig()
	sp = tr.stageOf(root.ref(), "model.fingerprint")
	prov, err := model.Fingerprint(reg, h.Span(), cfg)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.stageOf(root.ref(), "model.load")
	f, err := model.Load(filepath.Join(s.dir, modelFile), metrics)
	if err == nil {
		err = f.Verify(prov)
	}
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.stageOf(root.ref(), "plugin.build")
	var served mining.Store = store
	if tr != nil {
		served = timedStore{Store: store, tr: tr}
	}
	sys := core.New(served, cfg).WithObs(metrics)
	sys.UseOutcome(f.Outcome())
	srv, err := plugin.NewServer(sys, 0)
	if err == nil {
		srv.WithFingerprint(f.Provenance.Hash).
			WithQueue(plugin.NewAcceptQueue(0, metrics)).
			WithCache(plugin.NewResponseCache(plugin.CacheConfig{MaxBytes: responseCacheBytes}, metrics))
	}
	sp.end()
	return srv, h.ActionCount(), err
}

// bodies returns the bodies of n requests, numbered from first. Each is a
// real edit with its time moved by its number plus one, so no (edit, at)
// pair repeats within a run, none is a probe, and the response cache never
// answers.
func (s *serve) bodies(first, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		k := first + i
		r := s.reqs[k%len(s.reqs)]
		r.At += int64(k) + 1
		out[i] = mustJSON(r)
	}
	return out
}

// checkAdvice checks a /suggest response is a 200 holding an advice list.
func checkAdvice(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, body)
	}
	var advice []plugin.AdviceInfo
	if err := json.Unmarshal(body, &advice); err != nil {
		return fmt.Errorf("response is not an advice list: %w", err)
	}
	return nil
}

// measure runs rounds for about d. Each warm-starts the server, then serves
// the last server on a loopback listener in an open-loop load step, and
// then checks the server's answers to the probes.
func (s *serve) measure(ctx context.Context, d time.Duration, meter *speedometer, tr *tracer) (*phase, error) {
	var metrics *obs.Registry
	if tr != nil {
		metrics = obs.NewRegistry()
	}
	ph := &phase{}
	var (
		readies   timings
		stepP50   timings       // each load step's median latency
		stepCPU   timings       // each load step's process CPU time per request
		growths   []float64     // how far each round's RSS peaked above its start, MiB
		res       loadResult    // pooled over the rounds
		lateFinal time.Duration // the most any step's generator ran behind at its end
		mem       memDelta
		actions   int
		loadSpans = map[uint64]bool{}
	)
	warm, load := newCounters(), newCounters()
	rounds := max(1, int(d/roundLen))
	start := time.Now()
	for r := 0; r < rounds; r++ {
		roundEnd := start.Add(d * time.Duration(r+1) / time.Duration(rounds))
		warmEnd := time.Now().Add(time.Duration(warmShare * float64(time.Until(roundEnd))))
		snap := metrics.Snapshot()
		var srv *plugin.Server
		var warms []time.Duration
		rss := freshMemory()
		k := meter.read()
		for i := 0; i < 1 || time.Now().Before(warmEnd); i++ {
			runtime.GC()
			root := tr.root(s.root())
			got, n, err := s.warmStart(root, tr, metrics)
			ready := root.end()
			if !ph.record(err) {
				continue
			}
			warms, srv, actions = append(warms, ready), got, n
		}
		kernel := meter.read().since(k)
		for _, w := range warms {
			readies.add(w, kernel)
		}
		warm.add(snap, metrics.Snapshot())
		if srv == nil {
			return nil, fmt.Errorf("no warm start succeeded: %w", ph.firstErr)
		}

		k = meter.read()
		step, err := s.serveRound(ctx, srv, tr, metrics, r, res.sent, max(time.Until(roundEnd), minLoad), load, &mem)
		if err != nil {
			return nil, err
		}
		kernel = meter.read().since(k)
		growths = append(growths, rssGrowthMiB(rss))
		ph.attempted += step.res.sent
		ph.failed += step.res.failed
		if step.res.firstErr != nil && ph.firstErr == nil {
			ph.firstErr = step.res.firstErr
		}
		h := srv.Handler()
		sp := tr.stageOf(ref{}, "probes") // so the probes' fetches and pulls do not count as the load step's
		for i, body := range s.golden {
			status, got := suggest(h, mustJSON(s.reqs[i]))
			var err error
			if status != http.StatusOK || !bytes.Equal(got, body) {
				err = fmt.Errorf("probe %d: the warm-started server answered %d %s, the server built in setup %s", i, status, got, body)
			}
			ph.record(err)
		}
		sp.end()
		if step.res.sent == 0 {
			continue
		}
		res.sent += step.res.sent
		res.latency = append(res.latency, step.res.latency...)
		res.late = append(res.late, step.res.late...)
		lateFinal = max(lateFinal, step.res.late[len(step.res.late)-1])
		stepP50.add(median(step.res.latency), kernel)
		stepCPU.add(step.cpu/time.Duration(step.res.sent), kernel)
		loadSpans[step.span] = true
	}
	if res.sent == 0 {
		return nil, errors.New("the load steps sent no request")
	}

	ph.ops, ph.readies, ph.rounds = res.sent, len(readies.raw), rounds
	ph.endToEnd = map[string]float64{
		"ready_ms":      ms(mean(readies.scaled)),
		"op_ms":         ms(mean(stepP50.scaled)),
		"cpu_ms_per_op": ms(mean(stepCPU.scaled)),
		"rss_growth_mb": median(growths),
	}
	ph.raw = map[string]float64{
		"ready_ms":      ms(mean(readies.raw)),
		"op_ms":         ms(mean(stepP50.raw)),
		"cpu_ms_per_op": ms(mean(stepCPU.raw)),
	}
	ph.medians = map[string]float64{
		"ready_ms":      ms(median(readies.scaled)),
		"op_ms":         ms(median(stepP50.scaled)),
		"cpu_ms_per_op": ms(median(stepCPU.scaled)),
	}
	ph.overheadBase = ph.endToEnd["ready_ms"]
	ph.load = map[string]float64{
		"p50_ms":        ms(median(res.latency)),
		"p90_ms":        ms(quantile(res.latency, 0.90)),
		"p99_ms":        ms(quantile(res.latency, 0.99)),
		"late_p50_ms":   ms(median(res.late)),
		"late_final_ms": ms(lateFinal),
	}
	if tr != nil {
		ph.layers = s.layers(tr.records(), loadSpans, warm, load, len(readies.raw), actions, res, mem)
		ph.absent = append(warm.absentNames(), load.absentNames()...)
	}
	return ph, nil
}

// roundLoad is what one round's load step observed.
type roundLoad struct {
	res  loadResult
	cpu  time.Duration
	span uint64 // the step's "load" span
}

// serveRound serves srv on a loopback listener for one load step of d, and
// adds the step's counters and runtime work to load and mem. The step's
// requests continue the numbering of the earlier rounds' from first, so no
// request repeats an earlier (edit, at) pair.
func (s *serve) serveRound(ctx context.Context, srv *plugin.Server, tr *tracer, metrics *obs.Registry,
	round, first int, d time.Duration, load *counters, mem *memDelta) (*roundLoad, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: tr.handler(srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx) // a forced close still ends Serve, which is all the wait below needs
		<-served
	}()

	due := arrivals(s.seed, uint64(round), s.rate, d)
	bodies := s.bodies(first, len(due))
	step := loadStep{
		url: "http://" + ln.Addr().String() + "/suggest", due: due, conns: runtime.NumCPU(), tr: tr,
		body:  func(i int) []byte { return bodies[i] },
		check: func(_, status int, body []byte) error { return checkAdvice(status, body) },
	}
	snap0, mem0, cpu0 := metrics.Snapshot(), memStats(), cpuTime()
	sp := tr.stageOf(ref{}, "load")
	out := &roundLoad{res: step.run(ctx)}
	sp.end()
	out.cpu = cpuTime() - cpu0
	mem.add(mem0, memStats())
	load.add(snap0, metrics.Snapshot())
	out.span = sp.ref().span
	return out, ctx.Err()
}

// layers derives the per-layer metrics of a traced phase: the warm-start
// layers per warm start, the serving layers per request of the load steps.
func (s *serve) layers(spans []spanRecord, loadSpans map[uint64]bool, warm, load *counters, warms, actions int, res loadResult, mem memDelta) map[string]float64 {
	nw, nr := float64(warms), float64(res.sent)
	self := selfTimes(spans)
	var overhead []time.Duration
	for _, sp := range named(spans, "gen.send") {
		overhead = append(overhead, self[sp.Span])
	}
	var handled []time.Duration // requests of the load steps
	for _, sp := range named(spans, "plugin.handle") {
		if sp.Parent != 0 {
			handled = append(handled, sp.dur())
		}
	}
	var fetches, pulls []spanRecord
	for _, sp := range named(spans, "source.fetch") {
		if loadSpans[sp.Parent] {
			fetches = append(fetches, sp)
		}
	}
	for _, sp := range named(spans, "source.pull") {
		if loadSpans[sp.Parent] {
			pulls = append(pulls, sp)
		}
	}
	assisted := load.get(cAssistRequests)
	l := map[string]float64{
		"dump.read_s":   spanSeconds(spans, "dump.read") / nw,
		"dump.ingest_s": spanSeconds(spans, "dump.ingest") / nw,
		"dump.alloc_mb": (spanAllocMiB(spans, "dump.read") + spanAllocMiB(spans, "dump.ingest")) / nw,
		"dump.actions":  float64(actions),

		"model.fingerprint_s": spanSeconds(spans, "model.fingerprint") / nw,
		"model.load_s":        spanSeconds(spans, "model.load") / nw,
		"model.bytes":         warm.get(cModelLoadBytes) / nw,

		"detect.tasks":        warm.get(cDetectRuns) / nw,
		"detect.partials":     warm.get(cDetectPartials) / nw,
		"detect.rows_scanned": warm.get(cDetectRowsScanned) / nw,

		"source.pull_busy_s": sum(durations(pulls)).Seconds() / nr,
		"source.pull_share":  ratio(sum(durations(pulls)).Seconds(), sum(handled).Seconds()),

		"plugin.build_s":        spanSeconds(spans, "plugin.build") / nw,
		"plugin.handler_p50_ms": ms(median(handled)),
		"plugin.handler_p99_ms": ms(quantile(handled, 0.99)),

		"assist.requests":   assisted,
		"assist.candidates": ratio(load.get(cAssistCandidates), assisted),
		"assist.advices":    ratio(load.get(cAssistAdvices), assisted),

		"gen.sent":               nr,
		"gen.late_p99_ms":        ms(quantile(res.late, 0.99)),
		"gen.client_overhead_ms": ms(median(overhead)),
	}
	sourceLayers(l, fetches, load, nr)
	runtimeLayers(l, mem, nr)
	return l
}
