package service

import (
	"container/list"
	"sync"

	"cpsinw/internal/obs"
)

// lru is the service's one in-memory cache: a map bounded to maxEntries
// entries and, when maxBytes is positive, to maxBytes bytes as its
// callers charge them, that evicts least recently used entries first.
// An entry over the byte bound on its own is not kept. Lookups count
// hits and misses. Values are compared by identity (the service's are
// pointers), which tells an entry from a later one under the same key.
// Get, Put, Stats and Keys are exported so that Cache, which embeds an
// lru, offers them. All methods are safe for concurrent use.
type lru[K, V comparable] struct {
	maxEntries   int
	maxBytes     int64
	hits, misses *obs.Counter

	mu    sync.Mutex
	ll    list.List // *lruEntry[K, V], front = most recently used
	items map[K]*list.Element
	bytes int64 // charged bytes of the resident entries
}

type lruEntry[K, V comparable] struct {
	key  K
	val  V
	size int64
}

// newLRU builds an empty cache counting its hits and misses on the
// given counters; nil counters are made private.
func newLRU[K, V comparable](maxEntries int, maxBytes int64, hits, misses *obs.Counter) *lru[K, V] {
	if hits == nil {
		hits = new(obs.Counter)
	}
	if misses == nil {
		misses = new(obs.Counter)
	}
	return &lru[K, V]{maxEntries: maxEntries, maxBytes: maxBytes, hits: hits, misses: misses, items: map[K]*list.Element{}}
}

// Get returns the value held under k, promoting it to most recently
// used, and counts a hit or a miss.
func (l *lru[K, V]) Get(k K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[k]
	if !ok {
		l.misses.Inc()
		var zero V
		return zero, false
	}
	l.hits.Inc()
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put stores v under k, replacing the value held there, if any, and
// its charged bytes.
func (l *lru[K, V]) Put(k K, v V) { l.insert(k, v, 0, true) }

// publish stores v under k, charged size bytes, unless k already holds
// a value, and returns the value now held: v, or the one published
// first.
func (l *lru[K, V]) publish(k K, v V, size int64) V { return l.insert(k, v, size, false) }

func (l *lru[K, V]) insert(k K, v V, size int64, replace bool) V {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.items[k]; ok {
		l.ll.MoveToFront(el)
		e := el.Value.(*lruEntry[K, V])
		if !replace {
			return e.val
		}
		l.bytes += size - e.size
		e.val, e.size = v, size
	} else {
		l.items[k] = l.ll.PushFront(&lruEntry[K, V]{key: k, val: v, size: size})
		l.bytes += size
	}
	l.evictLocked()
	return v
}

// charge adds n bytes v has grown by to its entry while v is the value
// held under k, evicting as the bounds require. Growth of a value that
// is no longer held counts nothing.
func (l *lru[K, V]) charge(k K, v V, n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	el, ok := l.items[k]
	if !ok {
		return
	}
	if e := el.Value.(*lruEntry[K, V]); e.val == v {
		e.size += n
		l.bytes += n
		l.evictLocked()
	}
}

// evictLocked drops least recently used entries until both bounds
// hold. Callers hold l.mu.
func (l *lru[K, V]) evictLocked() {
	for l.ll.Len() > l.maxEntries || l.maxBytes > 0 && l.bytes > l.maxBytes && l.ll.Len() > 0 {
		e := l.ll.Remove(l.ll.Back()).(*lruEntry[K, V])
		delete(l.items, e.key)
		l.bytes -= e.size
	}
}

// Stats returns the hit and miss counts and the resident entries.
func (l *lru[K, V]) Stats() (hits, misses uint64, size int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(l.hits.Value()), uint64(l.misses.Value()), l.ll.Len()
}

// Keys lists the resident keys from most to least recently used.
func (l *lru[K, V]) Keys() []K {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]K, 0, l.ll.Len())
	for el := l.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[K, V]).key)
	}
	return out
}
