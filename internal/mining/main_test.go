package mining

import (
	"testing"

	"wiclean/internal/analysis/leakcheck"
)

// TestMain guards the package with the goroutine-leak detector: every
// join-worker goroutine must be joined when its extension batch returns,
// or the package fails with the leaked stacks.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
