package core

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"wiclean/internal/model"
	"wiclean/internal/obs"
	"wiclean/internal/obs/trace"
	"wiclean/internal/windows"
)

// lockedBuffer serializes trace-export writes from mining goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// TestMiningOutputIdenticalWithTracing pins the observe-only contract:
// a traced mine writes the same model bytes as an untraced one. Tracing
// records; it never steers.
func TestMiningOutputIdenticalWithTracing(t *testing.T) {
	h, players, span := fixture(t)
	mine := func(sys *System) (*windows.Outcome, []byte) {
		t.Helper()
		o, err := sys.Mine(players, "FootballPlayer", span)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := model.Write(&b, model.Snapshot(o, h.Registry(), model.Provenance{})); err != nil {
			t.Fatal(err)
		}
		return o, b.Bytes()
	}
	_, want := mine(New(h, testConfig()))

	var sink lockedBuffer
	tracer := trace.New(trace.Config{Service: "test-miner", Registry: obs.NewRegistry(), Output: &sink})
	traced := New(h, testConfig()).WithTracer(tracer)
	if traced.Tracer() != tracer {
		t.Fatal("Tracer accessor")
	}
	o, got := mine(traced)
	if len(o.Discovered) == 0 {
		t.Fatal("the fixture mined no pattern to compare")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("traced mine wrote a different model:\n%s\nuntraced:\n%s", got, want)
	}

	// The traced run really traced: one exported window trace per
	// (window, step) job, each rooted at windows.window.
	sink.mu.Lock()
	lines := bytes.Split(bytes.TrimSpace(sink.b.Bytes()), []byte("\n"))
	sink.mu.Unlock()
	if len(o.WindowDurations) == 0 || len(lines) < len(o.WindowDurations) {
		t.Fatalf("%d trace exports for %d window jobs", len(lines), len(o.WindowDurations))
	}
	var exp trace.TraceExport
	if err := json.Unmarshal(lines[0], &exp); err != nil {
		t.Fatalf("export line: %v", err)
	}
	if exp.Root != "windows.window" || exp.Service != "test-miner" {
		t.Fatalf("export root = %+v", exp)
	}
}
