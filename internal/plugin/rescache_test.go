package plugin

import (
	"bytes"
	"testing"

	"wiclean/internal/obs"
)

// TestResponseCacheLRUEviction pins the cache's bound: inserts whose
// charged cost passes MaxBytes evict the least recently used entry, hits
// refresh recency, and an entry costing more than the whole cache is
// served but never retained.
func TestResponseCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	body := bytes.Repeat([]byte("x"), 40)
	cost := entryCost("a", body)
	c := NewResponseCache(CacheConfig{MaxBytes: 2*cost + cost/2}, reg) // room for two entries

	c.Put("a", body)
	c.Put("b", body)
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("resident entry missed")
	}
	c.Put("c", body) // three entries > MaxBytes: evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("fresh insert evicted")
	}
	if got := reg.Snapshot().Counters[obs.SuggestCacheEvictions]; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}

	c.Put("big", bytes.Repeat([]byte("y"), 2*cost))
	if _, ok := c.Get("big"); ok {
		t.Fatal("body larger than the tier was retained")
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("resident entries = %d, want 2", got)
	}
}

// TestResponseCacheChargesKeysAndEntries pins what MaxBytes bounds: the
// memory the entries hold, not only their bodies. 10,000 distinct keys
// with the 3-byte body "[]\n" (the answer to a known edit that starts no
// pattern) go into a 64 KiB cache; counting each key's 64 bytes alone,
// at most 65,536 / (64 + 3) = 978 may stay resident. Charging the bodies
// alone kept 21,845.
func TestResponseCacheChargesKeysAndEntries(t *testing.T) {
	reg := obs.NewRegistry()
	const maxBytes = 64 << 10
	c := NewResponseCache(CacheConfig{MaxBytes: maxBytes}, reg)
	for at := int64(0); at < 10_000; at++ {
		c.Put(suggestKey("model", "Senator 0000", "+", "member_of", "Committee 0003", at), []byte("[]\n"))
	}
	if got, limit := c.Len(), maxBytes/(64+3); got > limit {
		t.Fatalf("%d entries resident in a %d-byte cache, want at most %d", got, maxBytes, limit)
	}
	if c.Len() == 0 {
		t.Fatal("no entry resident")
	}
	if got := reg.Snapshot().Gauges[obs.SuggestCacheBytes]; got > maxBytes {
		t.Fatalf("%s = %v, above MaxBytes %d", obs.SuggestCacheBytes, got, maxBytes)
	}
}

// TestSuggestKeyCanonicalization pins the cache key: the model
// fingerprint is part of it (so a hot swap invalidates everything), the
// empty op spelling folds into "+", and the length-prefixed field
// encoding keeps adjacent fields from colliding by boundary shifting.
func TestSuggestKeyCanonicalization(t *testing.T) {
	kA := suggestKey("model-A", "s", "+", "l", "o", 42)
	kB := suggestKey("model-B", "s", "+", "l", "o", 42)
	if kA == kB {
		t.Fatal("fingerprint does not partition the key space")
	}
	if suggestKey("f", "s", "", "l", "o", 1) != suggestKey("f", "s", "+", "l", "o", 1) {
		t.Fatal(`op "" and op "+" describe the same edit but key differently`)
	}
	if suggestKey("f", "s", "+", "ab", "c", 1) == suggestKey("f", "s", "+", "a", "bc", 1) {
		t.Fatal("field boundary shift collides")
	}
	if suggestKey("f", "s", "+", "l", "o", 1) == suggestKey("f", "s", "+", "l", "o", 2) {
		t.Fatal("timestamp ignored by the key")
	}

	// The invalidation story end to end: an entry cached under the old
	// model's key is unreachable under the new model's.
	c := NewResponseCache(CacheConfig{MaxBytes: 1 << 10}, nil)
	c.Put(kA, []byte("old model advice"))
	if _, ok := c.Get(kB); ok {
		t.Fatal("new fingerprint reached an old model's entry")
	}
}

// TestResponseCacheNilSafe pins the off switch: MaxBytes <= 0 yields a
// nil cache, and every method on it is a safe always-miss no-op.
func TestResponseCacheNilSafe(t *testing.T) {
	if NewResponseCache(CacheConfig{}, nil) != nil {
		t.Fatal("MaxBytes 0 should disable the cache")
	}
	var c *ResponseCache
	c.Put("k", []byte("x"))
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache reports entries")
	}
}
