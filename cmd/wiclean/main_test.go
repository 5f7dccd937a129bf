package main

import (
	"strings"
	"testing"
)

// TestSuggestRejectsBadOp checks that suggest refuses an -op other than
// "+" or "-" before it loads or mines anything, and names the op: read as
// an addition, "-op remove" would answer a question nobody asked.
func TestSuggestRejectsBadOp(t *testing.T) {
	for _, op := range []string{"remove", "add", "*", ""} {
		err := cmdSuggest([]string{"-subject", "a", "-label", "l", "-object", "b", "-op", op})
		if err == nil || !strings.Contains(err.Error(), `"`+op+`"`) {
			t.Errorf("suggest -op %q: error %v, want one naming the op", op, err)
		}
	}
}
