package exp

import (
	"sync"
	"sync/atomic"
	"testing"

	dragonfly "repro"
)

// storeCfg derives distinct configurations (hence distinct keys) from n.
func storeCfg(n int) dragonfly.Config {
	cfg := tinyBase()
	cfg.Mechanism = dragonfly.Minimal
	cfg.Load = 0.2
	cfg.Seed = uint64(n + 1)
	return cfg
}

// fillStore puts n synthetic results and returns their keys and the
// size of one entry (they are all the same shape, hence the same size).
func fillStore(t *testing.T, s *Store, n int) (keys []string, entrySize int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		cfg := storeCfg(i)
		key := s.Key(cfg)
		if err := s.Put(key, cfg, dragonfly.Result{Mechanism: "Minimal", Delivered: 100}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	return keys, s.cache.Size(keys[len(keys)-1])
}

func TestStoreEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	probe, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, size := fillStore(t, probe, 1)

	// Budget for exactly two entries.
	s, err := OpenStore(t.TempDir(), 2*size)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := fillStore(t, s, 2)
	// Touch key 0 so key 1 is the LRU victim.
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	cfg := storeCfg(2)
	if err := s.Put(s.Key(cfg), cfg, dragonfly.Result{Mechanism: "Minimal", Delivered: 100}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("recently used entry was evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes > 2*size {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestStoreNeverEvictsItsOwnPut(t *testing.T) {
	_, size := fillStore(t, mustStore(t, t.TempDir(), 0), 1)
	// A budget smaller than one entry must keep the single entry rather
	// than thrash; the next Put displaces it.
	s := mustStore(t, t.TempDir(), size/2)
	keys, _ := fillStore(t, s, 1)
	if _, ok := s.Get(keys[0]); !ok {
		t.Fatal("sole oversized entry was evicted by its own Put")
	}
	cfg := storeCfg(1)
	if err := s.Put(s.Key(cfg), cfg, dragonfly.Result{Delivered: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("old oversized entry survived the next Put")
	}
	if _, ok := s.Get(s.Key(cfg)); !ok {
		t.Fatal("new entry missing")
	}
}

func mustStore(t *testing.T, dir string, max int64) *Store {
	t.Helper()
	s, err := OpenStore(dir, max)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreReopenScansAndTrims(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir, 0)
	keys, size := fillStore(t, s, 4)

	re := mustStore(t, dir, 0)
	st := re.Stats()
	if st.Entries != 4 || st.Bytes != 4*size {
		t.Fatalf("reopened stats: %+v, want 4 entries, %d bytes", st, 4*size)
	}
	if _, ok := re.Get(keys[2]); !ok {
		t.Fatal("reopened store lost an entry")
	}

	// Reopening under a smaller budget trims immediately.
	trimmed := mustStore(t, dir, 2*size)
	st = trimmed.Stats()
	if st.Entries != 2 || st.Bytes > 2*size {
		t.Fatalf("trimmed stats: %+v", st)
	}
}

// TestStoreConcurrentHitsDuringEviction hammers Get on a working set
// while Puts force continuous eviction: no torn reads, the byte budget
// holds, and — the counter-accuracy check — hits+misses equals exactly
// the number of lookups issued.
func TestStoreConcurrentHitsDuringEviction(t *testing.T) {
	probe := mustStore(t, t.TempDir(), 0)
	_, size := fillStore(t, probe, 1)

	s := mustStore(t, t.TempDir(), 3*size)
	keys, _ := fillStore(t, s, 3)

	const readers = 4
	const lookupsEach = 200
	var lookups atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < lookupsEach; i++ {
				key := keys[(r+i)%len(keys)]
				lookups.Add(1)
				if res, ok := s.Get(key); ok && res.Delivered != 100 {
					t.Errorf("torn read: %+v", res)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // writer forcing eviction churn
		defer wg.Done()
		for i := 3; i < 40; i++ {
			cfg := storeCfg(i)
			if err := s.Put(s.Key(cfg), cfg, dragonfly.Result{Mechanism: "Minimal", Delivered: 100}); err != nil {
				t.Errorf("put: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	st := s.Stats()
	if st.Bytes > 3*size {
		t.Fatalf("budget exceeded: %+v", st)
	}
	if st.Hits+st.Misses != lookups.Load() {
		t.Fatalf("counters drifted under contention: %d hits + %d misses != %d lookups",
			st.Hits, st.Misses, lookups.Load())
	}
	if st.Evictions == 0 {
		t.Fatal("writer churn caused no evictions")
	}
}

// TestCacheConcurrentSameKeyWriters races two goroutines writing the
// same point while readers poll it: every successful read must see one
// of the two complete entries, never a torn mix, and the hit/miss
// counters must account for every lookup.
func TestCacheConcurrentSameKeyWriters(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeCfg(0)
	key := cache.Key(cfg)

	const rounds = 100
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := dragonfly.Result{Mechanism: "Minimal", Delivered: int64(100 + w)}
			for i := 0; i < rounds; i++ {
				if err := cache.Put(key, cfg, res); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	var lookups atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lookups.Add(1)
				if res, ok := cache.Get(key); ok {
					if res.Delivered != 100 && res.Delivered != 101 {
						t.Errorf("torn entry: Delivered=%d", res.Delivered)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	res, ok := cache.Get(key)
	if !ok || (res.Delivered != 100 && res.Delivered != 101) {
		t.Fatalf("final entry: ok=%v %+v", ok, res)
	}
	hits, misses := cache.Stats()
	if hits+misses != lookups.Load()+1 {
		t.Fatalf("counters drifted: %d hits + %d misses != %d lookups", hits, misses, lookups.Load()+1)
	}
	// No stray temp files left behind by the racing writers.
	entries, err := cache.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != key {
		t.Fatalf("directory holds %d entries, want exactly the racing key", len(entries))
	}
}
