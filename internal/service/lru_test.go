package service

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// lruContents renders the resident entries as key=value from most to
// least recently used, with the charged bytes, and checks the index
// against the list.
func lruContents(t *testing.T, l *lru[string, string]) (string, int64) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var parts []string
	var sum int64
	for el := l.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry[string, string])
		parts = append(parts, e.key+"="+e.val)
		sum += e.size
		if l.items[e.key] != el {
			t.Errorf("entry %s is not indexed", e.key)
		}
	}
	if len(l.items) != l.ll.Len() || sum != l.bytes {
		t.Errorf("%d indexed, %d listed; %d bytes charged, entries sum to %d", len(l.items), l.ll.Len(), l.bytes, sum)
	}
	return strings.Join(parts, " "), l.bytes
}

// TestLRU covers the one cache mechanism the report cache, the memo of
// prepared circuits and the loaded dictionaries share.
func TestLRU(t *testing.T) {
	for _, tc := range []struct {
		name         string
		max          int
		maxBytes     int64
		run          func(t *testing.T, l *lru[string, string])
		want         string // resident entries, most recent first
		bytes        int64
		hits, misses uint64
	}{
		{"count bound", 2, 0, func(t *testing.T, l *lru[string, string]) {
			l.Put("a", "a")
			l.Put("b", "b")
			l.Get("a") // a becomes most recent, so b goes
			l.Put("c", "c")
		}, "c=c a=a", 0, 1, 0},
		{"byte bound", 4, 100, func(t *testing.T, l *lru[string, string]) {
			l.publish("a", "a", 50)
			l.publish("b", "b", 30)
			l.publish("c", "c", 40) // 120 bytes: a, the oldest, goes
		}, "c=c b=b", 70, 0, 0},
		{"growth while resident", 4, 100, func(t *testing.T, l *lru[string, string]) {
			l.publish("a", "a", 50)
			l.publish("b", "b", 25)
			l.charge("a", "a", 10) // 85 bytes: both stay
			l.charge("a", "a", 40) // 125 bytes: a, the older, goes
		}, "b=b", 25, 0, 0},
		{"growth of an evicted entry", 1, 100, func(t *testing.T, l *lru[string, string]) {
			l.publish("a", "a1", 10)
			l.publish("b", "b", 10) // evicts a1
			l.charge("a", "a1", 50)
			l.publish("a", "a2", 10) // evicts b
			l.charge("a", "a1", 50)  // a2 is not a1: nothing charged
		}, "a=a2", 10, 0, 0},
		{"entry over the byte bound", 4, 100, func(t *testing.T, l *lru[string, string]) {
			l.publish("a", "a", 10)
			if got := l.publish("huge", "huge", 101); got != "huge" {
				t.Errorf("publish returned %q, want the entry itself", got)
			}
		}, "", 0, 0, 0},
		{"put replaces", 2, 100, func(t *testing.T, l *lru[string, string]) {
			l.publish("a", "a1", 30)
			l.Put("b", "b")
			l.Put("a", "a2") // replaces a1 and its bytes, a becomes most recent
			l.Put("c", "c")  // b goes
		}, "c=c a=a2", 0, 0, 0},
		{"publish keeps the first", 2, 100, func(t *testing.T, l *lru[string, string]) {
			l.Put("b", "b")
			for _, v := range []string{"a1", "a2"} {
				if got := l.publish("a", v, 10); got != "a1" {
					t.Errorf("publish(%s) returned %q, want the first entry a1", v, got)
				}
			}
		}, "a=a1 b=b", 10, 0, 0},
		{"hits and misses", 2, 0, func(t *testing.T, l *lru[string, string]) {
			if _, ok := l.Get("a"); ok {
				t.Error("empty cache reported a hit")
			}
			l.Put("a", "a")
			l.publish("b", "b", 0)
			l.charge("a", "a", 1)
			for range 2 {
				if v, ok := l.Get("a"); !ok || v != "a" {
					t.Errorf("Get(a) = %q %t", v, ok)
				}
			}
			l.Get("c")
		}, "a=a b=b", 1, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLRU[string, string](tc.max, tc.maxBytes, nil, nil)
			tc.run(t, l)
			got, bytes := lruContents(t, l)
			if got != tc.want || bytes != tc.bytes {
				t.Errorf("holds [%s] in %d bytes, want [%s] in %d", got, bytes, tc.want, tc.bytes)
			}
			if hits, misses, _ := l.Stats(); hits != tc.hits || misses != tc.misses {
				t.Errorf("%d hits %d misses, want %d/%d", hits, misses, tc.hits, tc.misses)
			}
		})
	}

	// Concurrent use, for the race detector: gets, puts, publishes and
	// charges over more keys than the cache holds keep both bounds and
	// count every get once.
	t.Run("concurrent", func(t *testing.T) {
		const goroutines, rounds, keys = 4, 400, 16
		l := newLRU[string, string](8, 64, nil, nil)
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range rounds {
					k := fmt.Sprintf("k%d", (7*i+g)%keys)
					switch i % 4 {
					case 0:
						l.Put(k, k)
					case 1:
						l.publish(k, k, int64(i%16))
					case 2:
						l.charge(k, k, 4)
					default:
						if v, ok := l.Get(k); ok && v != k {
							t.Errorf("Get(%s) = %s", k, v)
						}
					}
				}
			}()
		}
		wg.Wait()
		_, bytes := lruContents(t, l)
		hits, misses, size := l.Stats()
		if size > 8 || bytes > 64 {
			t.Errorf("holds %d entries in %d bytes, bounds 8 and 64", size, bytes)
		}
		if hits+misses != goroutines*rounds/4 {
			t.Errorf("%d lookups counted, want %d", hits+misses, goroutines*rounds/4)
		}
	})
}
