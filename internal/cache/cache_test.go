package cache

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hypre/internal/combine"
)

func fpOf(b byte) combine.Fingerprint {
	var fp combine.Fingerprint
	fp[0] = b
	fp[15] = b
	return fp
}

func resultEntry(fp combine.Fingerprint, k int, size int64, preds ...string) *entry {
	return &entry{
		key:      entryKey{fp: fp, k: int32(k), kind: kindResult},
		tuples:   []combine.ScoredTuple{{PID: 1, Intensity: 0.5}},
		predKeys: preds,
		size:     size,
	}
}

// TestCacheLRUByteBudget: a single-shard cache under a tight byte budget
// keeps the hot end, evicts from the cold end, counts every eviction, and
// its byte accounting never exceeds the budget.
func TestCacheLRUByteBudget(t *testing.T) {
	c := NewCache(Config{MaxBytes: 1000, Shards: 1})
	for i := 0; i < 10; i++ {
		c.put(resultEntry(fpOf(byte(i)), 10, 300))
	}
	entries, bytes := c.Stats()
	if bytes > 1000 {
		t.Fatalf("byte charge %d exceeds the 1000 budget", bytes)
	}
	if entries != 3 {
		t.Fatalf("want 3 resident entries under budget, got %d", entries)
	}
	if ev := c.Counters().Evictions.Load(); ev != 7 {
		t.Fatalf("want 7 evictions, got %d", ev)
	}
	// The survivors are the three most recent inserts.
	for i := 7; i < 10; i++ {
		if _, ok := c.get(entryKey{fp: fpOf(byte(i)), k: 10, kind: kindResult}); !ok {
			t.Fatalf("recent entry %d was evicted", i)
		}
	}
	// A get refreshes recency: touch the oldest survivor, insert one more,
	// and the untouched middle entry is the victim instead.
	c.get(entryKey{fp: fpOf(7), k: 10, kind: kindResult})
	c.put(resultEntry(fpOf(20), 10, 300))
	if _, ok := c.get(entryKey{fp: fpOf(7), k: 10, kind: kindResult}); !ok {
		t.Fatalf("recency refresh did not protect the touched entry")
	}
	if _, ok := c.get(entryKey{fp: fpOf(8), k: 10, kind: kindResult}); ok {
		t.Fatalf("LRU victim selection ignored recency")
	}
}

// TestCacheOversizedEntryNotCached: an entry larger than a shard's whole
// budget is refused instead of evicting everything.
func TestCacheOversizedEntryNotCached(t *testing.T) {
	c := NewCache(Config{MaxBytes: 1000, Shards: 1})
	c.put(resultEntry(fpOf(1), 10, 200))
	c.put(resultEntry(fpOf(2), 10, 5000))
	if _, ok := c.get(entryKey{fp: fpOf(2), k: 10, kind: kindResult}); ok {
		t.Fatalf("oversized entry was cached")
	}
	if _, ok := c.get(entryKey{fp: fpOf(1), k: 10, kind: kindResult}); !ok {
		t.Fatalf("oversized insert evicted a resident entry")
	}
}

// TestCacheRemoveWhere: the invalidation sweep drops exactly the entries
// depending on a dirty predicate.
func TestCacheRemoveWhere(t *testing.T) {
	c := NewCache(Config{MaxBytes: 1 << 20, Shards: 2})
	c.put(resultEntry(fpOf(1), 10, 100, "a", "b"))
	c.put(resultEntry(fpOf(2), 10, 100, "b", "c"))
	c.put(resultEntry(fpOf(3), 10, 100, "c"))
	dropped := c.removeWhere(func(e *entry) bool {
		for _, k := range e.predKeys {
			if k == "b" {
				return true
			}
		}
		return false
	})
	if dropped != 2 {
		t.Fatalf("want 2 dropped, got %d", dropped)
	}
	if _, ok := c.get(entryKey{fp: fpOf(3), k: 10, kind: kindResult}); !ok {
		t.Fatalf("unrelated entry was swept")
	}
	entries, _ := c.Stats()
	if entries != 1 {
		t.Fatalf("want 1 survivor, got %d", entries)
	}
}

// joinSignal is a context that counts calls to Done: flightGroup.do reads
// ctx.Done only when an arrival joins an existing flight as a waiter, so the
// count says how many callers have joined.
type joinSignal struct {
	context.Context
	joined *atomic.Int64
}

func (c joinSignal) Done() <-chan struct{} {
	c.joined.Add(1)
	return c.Context.Done()
}

// TestFlightGroupDedup: N concurrent calls for one key run fn exactly once;
// everyone shares the leader's value.
func TestFlightGroupDedup(t *testing.T) {
	var g flightGroup
	var calls, joined atomic.Int64
	release := make(chan struct{})
	key := entryKey{fp: fpOf(9), k: 5, kind: kindResult}
	ctx := joinSignal{Context: context.Background(), joined: &joined}

	const n = 24
	var leaders atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, leader, err := g.do(ctx, key, func() ([]combine.ScoredTuple, error) {
				calls.Add(1)
				<-release
				return []combine.ScoredTuple{{PID: 42, Intensity: 1}}, nil
			})
			if err != nil {
				t.Error(err)
			}
			if leader {
				leaders.Add(1)
			}
			if len(val) != 1 || val[0].PID != 42 {
				t.Error("waiter received wrong value")
			}
		}()
	}
	// Let every goroutine enqueue before the leader finishes. The leader
	// blocks on release, so the flight stays open until all n-1 others
	// have joined it as waiters.
	for calls.Load() == 0 || joined.Load() < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
	if l := leaders.Load(); l != 1 {
		t.Fatalf("%d leaders, want 1", l)
	}
	// The key is released after the flight: a later call runs fn again.
	_, leader, _ := g.do(context.Background(), key, func() ([]combine.ScoredTuple, error) { return nil, nil })
	if !leader {
		t.Fatalf("post-flight call should lead a fresh flight")
	}
}
