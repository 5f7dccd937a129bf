package plugin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSuggest posts raw bodies to /suggest on goldenServer. Whatever the
// bytes, the handler must not panic (the recover guard would turn a panic
// into a 500), must answer one of the statuses the endpoint documents —
// 200, 400 for a malformed body or op, 404 for an unknown entity, 413 for
// an oversized body — and every 200 must decode as an advice list.
func FuzzSuggest(f *testing.F) {
	srv, w := goldenServer(f)
	h := srv.Handler()

	a := w.History.ActionsOf(w.Seeds, w.Span)[0]
	body := func(op string, at int64) string {
		return fmt.Sprintf(`{"subject":%q,"op":%q,"label":%q,"object":%q,"at":%d}`,
			w.Reg.Name(a.Edge.Src), op, a.Edge.Label, w.Reg.Name(a.Edge.Dst), at)
	}
	for _, s := range []string{
		body("+", int64(a.T)),
		body("-", int64(a.T)),
		body("", int64(a.T)+1),
		body("+", -30),
		body("+", math.MinInt64),
		body("+", math.MaxInt64),
		body("+", int64(a.T)) + " trailing",
		body("+", int64(a.T)) + body("-", 0),
		body("*", int64(a.T)),
		`{"subject":"nobody","op":"+","label":"x","object":"nothing","at":0}`,
		`{"at":1e400}`,
		`[]`,
		``,
		`{"subject":"` + strings.Repeat("x", maxSuggestBody) + `"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/suggest", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var advice []AdviceInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &advice); err != nil {
				t.Fatalf("200 answer is not an advice list: %v: %s", err, rec.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}
