package plugin

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"wiclean/internal/core"
	"wiclean/internal/model"
	"wiclean/internal/obs"
)

// suggestBody is the fixture edit the suggest endpoints are probed with.
const suggestBody = `{"subject":"Senator 0000","op":"+","label":"member_of","object":"Committee 0003","at":1300000}`

func postSuggest(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/suggest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestSuggestRejectsBadOp(t *testing.T) {
	url := sharedServer(t)
	for _, op := range []string{"*", "add", "+-", " "} {
		body := strings.Replace(suggestBody, `"op":"+"`, `"op":"`+op+`"`, 1)
		code, data := postSuggest(t, url, body)
		if code != http.StatusBadRequest {
			t.Errorf("op %q: status = %d, want 400 (%s)", op, code, data)
		}
		if !strings.Contains(string(data), "invalid op") {
			t.Errorf("op %q: body %q should name the invalid op", op, data)
		}
	}
	// The valid spellings still pass: "+", "-", and empty (defaults to add).
	for _, op := range []string{"+", "-", ""} {
		body := strings.Replace(suggestBody, `"op":"+"`, `"op":"`+op+`"`, 1)
		if code, data := postSuggest(t, url, body); code != http.StatusOK {
			t.Errorf("op %q: status = %d, want 200 (%s)", op, code, data)
		}
	}
}

func TestSuggestUnknownEntityStatus(t *testing.T) {
	url := sharedServer(t)
	noSubject := strings.Replace(suggestBody, "Senator 0000", "Nobody", 1)
	if code, _ := postSuggest(t, url, noSubject); code != http.StatusNotFound {
		t.Errorf("unknown subject: status = %d, want 404", code)
	}
	noObject := strings.Replace(suggestBody, "Committee 0003", "Nothing", 1)
	if code, _ := postSuggest(t, url, noObject); code != http.StatusNotFound {
		t.Errorf("unknown object: status = %d, want 404", code)
	}
}

// TestModelWarmStartServesIdentically is the golden serving test: a server
// started from a persisted model — without ever invoking the miner — must
// answer /patterns, /errors and /suggest byte-identically to the server
// that mined the patterns itself.
func TestModelWarmStartServesIdentically(t *testing.T) {
	base := sharedServer(t) // mines the baseline server

	prov, err := model.Fingerprint(cachedWorld.Reg, cachedWorld.Span, cachedSys.Config())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.Save(path, model.Snapshot(cachedSys.Outcome(), cachedWorld.Reg, prov), nil); err != nil {
		t.Fatal(err)
	}
	f, err := model.Load(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(prov); err != nil {
		t.Fatal(err)
	}

	metrics := obs.NewRegistry()
	warm := core.New(cachedWorld.History, cachedCfg).WithObs(metrics)
	if err := warm.UseOutcome(f.Outcome()); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(warm, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Ready without mining: the refinement walk never ran.
	if n := metrics.Snapshot().Counters[obs.WindowsRefinementSteps]; n != 0 {
		t.Fatalf("warm-start server ran %d refinement steps, want 0", n)
	}

	get := func(url string) []byte {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, ep := range []string{"/patterns", "/errors"} {
		mined, loaded := get(base+ep), get(ts.URL+ep)
		if !bytes.Equal(mined, loaded) {
			t.Errorf("%s diverges between mined and model-backed server:\n mined  %s\n loaded %s", ep, mined, loaded)
		}
	}
	mCode, mined := postSuggest(t, base, suggestBody)
	lCode, loaded := postSuggest(t, ts.URL, suggestBody)
	if mCode != http.StatusOK || lCode != http.StatusOK {
		t.Fatalf("suggest statuses: mined %d, loaded %d", mCode, lCode)
	}
	if !bytes.Equal(mined, loaded) {
		t.Errorf("/suggest diverges:\n mined  %s\n loaded %s", mined, loaded)
	}
}
