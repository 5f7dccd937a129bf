package plugin

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"wiclean/internal/obs"
)

// CacheConfig sizes the /suggest response cache.
type CacheConfig struct {
	// MaxBytes caps the memory the resident entries hold: each is
	// charged its key, its body and a fixed per-entry overhead
	// (entryOverhead). Non-positive disables the cache entirely.
	MaxBytes int
}

// entryOverhead is what one resident entry holds beyond its key and body
// bytes: its map slot, its list element and its cachedResponse. On amd64,
// caches of 1,000 to 300,000 entries with 3-byte bodies ("[]\n", the
// answer to a known edit that starts no pattern) held 116 to 146 heap
// bytes per entry beyond the key, body included; charging only the body
// would let such a cache hold about 70 times its MaxBytes.
const entryOverhead = 144

// entryCost is the bytes one entry is charged against MaxBytes.
func entryCost(key string, body []byte) int { return len(key) + len(body) + entryOverhead }

// ResponseCache is the suggestion-response cache: a memory LRU of
// serialized /suggest bodies, bounded by the bytes its entries hold.
// Keys embed the serving model's provenance fingerprint (see
// suggestKey), so a model hot-swap flips every key and stale entries
// become unreachable without an explicit flush — they age out by LRU.
// Cached bodies are exactly the bytes the compute path would write, so
// responses are byte-identical with the cache on or off.
type ResponseCache struct {
	cfg CacheConfig
	obs *obs.Registry

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	bytes   int        // charged bytes of the resident entries (entryCost)
}

// cachedResponse is one resident response body.
type cachedResponse struct {
	key  string
	body []byte
}

// NewResponseCache returns a cache over cfg reporting into reg
// (nil-safe). A cfg.MaxBytes <= 0 returns nil — the serving path treats
// a nil cache as "always miss, never insert".
func NewResponseCache(cfg CacheConfig, reg *obs.Registry) *ResponseCache {
	if cfg.MaxBytes <= 0 {
		return nil
	}
	return &ResponseCache{
		cfg:     cfg,
		obs:     reg,
		entries: map[string]*list.Element{},
		lru:     list.New(),
	}
}

// suggestKey canonicalizes one /suggest computation: the serving model's
// provenance fingerprint plus the validated request fields, with the
// op's empty spelling folded into "+" so the two spellings of the same
// edit share an entry. The fingerprint prefix is what invalidates the
// whole cache on a model swap.
func suggestKey(fingerprint, subject, op, label, object string, at int64) string {
	if op == "" {
		op = "+"
	}
	h := sha256.New()
	// A length-prefixed field encoding keeps distinct requests from
	// colliding through separator injection in entity names.
	var buf [8]byte
	writeField := func(s string) {
		n := len(s)
		for i := range buf {
			buf[i] = byte(n >> (8 * i))
		}
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	writeField(fingerprint)
	writeField(subject)
	writeField(op)
	writeField(label)
	writeField(object)
	for i := range buf {
		buf[i] = byte(uint64(at) >> (8 * i))
	}
	h.Write(buf[:])
	return hex.EncodeToString(h.Sum(nil))
}

// Get serves the cached body for key. Nil-safe: a nil cache always
// misses. The returned slice must not be mutated.
func (c *ResponseCache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		body := el.Value.(*cachedResponse).body
		c.mu.Unlock()
		c.obs.Counter(obs.SuggestCacheHits).Inc()
		return body, true
	}
	c.mu.Unlock()
	c.obs.Counter(obs.SuggestCacheMisses).Inc()
	return nil, false
}

// Put inserts a freshly computed body under key and evicts LRU entries
// while the charged bytes exceed MaxBytes. An entry that costs more than
// the whole cache is served but not retained. Nil-safe no-op.
func (c *ResponseCache) Put(key string, body []byte) {
	if c == nil || entryCost(key, body) > c.cfg.MaxBytes {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok { // racing compute: refresh in place
		old := el.Value.(*cachedResponse)
		c.bytes += len(body) - len(old.body)
		old.body = body
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cachedResponse{key: key, body: body})
		c.bytes += entryCost(key, body)
	}
	for c.bytes > c.cfg.MaxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cachedResponse)
		c.lru.Remove(back)
		delete(c.entries, ev.key)
		c.bytes -= entryCost(ev.key, ev.body)
		c.obs.Counter(obs.SuggestCacheEvictions).Inc()
	}
	bytes, entries := c.bytes, len(c.entries)
	c.mu.Unlock()
	c.obs.Gauge(obs.SuggestCacheBytes).Set(float64(bytes))
	c.obs.Gauge(obs.SuggestCacheEntries).Set(float64(entries))
}

// Len reports the cache's entry count — test visibility.
func (c *ResponseCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
