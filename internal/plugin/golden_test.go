package plugin

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"wiclean/internal/action"
	"wiclean/internal/core"
	"wiclean/internal/mining"
	"wiclean/internal/source"
	"wiclean/internal/synth"
	"wiclean/internal/windows"
)

// goldenSuggestSHA256 is the sha256 of every request and answer of
// TestGoldenSuggestAnswers, in request order. A change to what the
// assistant answers, or to how an answer is encoded, changes it; a change
// that only alters how the answer is computed must not.
const goldenSuggestSHA256 = "457b9627eff71c95c1bf8881df73dc854712a6c88b52992552ea44e3ab5f864c"

// goldenShifts are the offsets, from each edit's recorded time, at which
// TestGoldenSuggestAnswers asks about it. All are non-negative, so every
// requested time lies inside the world's span or after it.
var goldenShifts = []action.Time{0, action.Day, 2 * action.Week, 9 * action.Week}

// goldenSrv and goldenWorld cache the server goldenServer builds, shared
// by TestGoldenSuggestAnswers and FuzzSuggest.
var (
	goldenSrv   *Server
	goldenWorld *synth.World
)

// goldenServer mines TestGoldenModelBytes's world (Soccer, 40 seed
// entities, world seed 1, one year) with the configuration the commands
// use and serves it through the default source stack, without a response
// cache.
func goldenServer(tb testing.TB) (*Server, *synth.World) {
	tb.Helper()
	if goldenSrv != nil {
		return goldenSrv, goldenWorld
	}
	p := synth.DefaultParams(synth.Soccer(), 40)
	p.Seed = 1
	p.Span = action.Window{Start: 0, End: 365 * action.Day}
	w, err := synth.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := windows.Defaults()
	cfg.Mining = mining.PM(cfg.InitialTau)
	cfg.Mining.MaxAbstraction = 1
	src, err := source.DefaultOptions().Build(w.History, w.Reg)
	if err != nil {
		tb.Fatal(err)
	}
	sys := core.New(source.NewStore(context.Background(), src), cfg)
	if _, err := sys.Mine(w.Seeds, w.Domain.SeedType, w.Span); err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(sys, 1)
	if err != nil {
		tb.Fatal(err)
	}
	goldenSrv, goldenWorld = srv, w
	return srv, w
}

// TestGoldenSuggestAnswers asks goldenServer about every distinct edit of
// a seed entity at each of goldenShifts and compares the sha256 of the
// requests and answers with the recorded constant.
func TestGoldenSuggestAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("mines a 40-seed world")
	}
	srv, w := goldenServer(t)
	h := srv.Handler()

	var reqs []SuggestRequest
	seen := map[SuggestRequest]bool{}
	for _, a := range w.History.ActionsOf(w.Seeds, w.Span) {
		r := SuggestRequest{
			Subject: w.Reg.Name(a.Edge.Src), Op: a.Op.String(), Label: string(a.Edge.Label),
			Object: w.Reg.Name(a.Edge.Dst),
		}
		if !seen[r] {
			seen[r] = true
			r.At = int64(a.T)
			reqs = append(reqs, r)
		}
	}
	sum := sha256.New()
	advised := 0
	for _, r := range reqs {
		at := r.At
		for _, shift := range goldenShifts {
			r.At = at + int64(shift)
			body, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/suggest", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body.Bytes())
			}
			var advice []AdviceInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &advice); err != nil {
				t.Fatalf("%s: answer is not an advice list: %v", body, err)
			}
			advised += len(advice)
			sum.Write(body)
			sum.Write(rec.Body.Bytes())
		}
	}
	if advised == 0 {
		t.Fatalf("%d edits asked, none advised", len(reqs)*len(goldenShifts))
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenSuggestSHA256 {
		t.Errorf("answers sha256 %s, want %s (%d requests, %d advices)",
			got, goldenSuggestSHA256, len(reqs)*len(goldenShifts), advised)
	}
}

// TestSuggestRejectsTimesNearInt64Limits posts a seed edit at the int64
// limits and around the ends of the assistant's TimeRange: a time within
// the largest window width of a limit answers 400, the nearest accepted
// times answer an advice list.
func TestSuggestRejectsTimesNearInt64Limits(t *testing.T) {
	if testing.Short() {
		t.Skip("mines a 40-seed world")
	}
	srv, w := goldenServer(t)
	h := srv.Handler()
	lo, hi := srv.state.Load().assistant.TimeRange()
	if lo <= math.MinInt64 || hi >= math.MaxInt64 || lo > hi {
		t.Fatalf("TimeRange() = [%d, %d], want strictly inside the int64 range", lo, hi)
	}
	// Matching does not depend on the time, so an edit advised at its
	// recorded time is advised at every accepted one.
	post := func(a action.Action, at int64) *httptest.ResponseRecorder {
		t.Helper()
		body, err := json.Marshal(SuggestRequest{
			Subject: w.Reg.Name(a.Edge.Src), Op: a.Op.String(), Label: string(a.Edge.Label),
			Object: w.Reg.Name(a.Edge.Dst), At: at,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/suggest", bytes.NewReader(body)))
		return rec
	}
	var a action.Action
	for _, a = range w.History.ActionsOf(w.Seeds, w.Span) {
		if rec := post(a, int64(a.T)); rec.Code == http.StatusOK && rec.Body.String() != "[]\n" {
			break
		}
	}
	for _, c := range []struct {
		at   int64
		want int
	}{
		{math.MinInt64, http.StatusBadRequest},
		{int64(lo) - 1, http.StatusBadRequest},
		{int64(lo), http.StatusOK},
		{int64(hi), http.StatusOK},
		{int64(hi) + 1, http.StatusBadRequest},
		{math.MaxInt64, http.StatusBadRequest},
	} {
		rec := post(a, c.at)
		if rec.Code != c.want {
			t.Fatalf("at %d: status %d, want %d: %s", c.at, rec.Code, c.want, rec.Body.Bytes())
		}
		if c.want == http.StatusOK {
			var advice []AdviceInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &advice); err != nil || len(advice) == 0 {
				t.Fatalf("at %d: want a non-empty advice list, got %v: %s", c.at, err, rec.Body.Bytes())
			}
		}
	}
}
