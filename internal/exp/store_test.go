package exp

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
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
	fi, err := os.Stat(s.path(keys[len(keys)-1]))
	if err != nil {
		t.Fatal(err)
	}
	return keys, fi.Size()
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
	store := mustStore(t, t.TempDir(), 0)
	cfg := storeCfg(0)
	key := store.Key(cfg)

	const rounds = 100
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := dragonfly.Result{Mechanism: "Minimal", Delivered: int64(100 + w)}
			for i := 0; i < rounds; i++ {
				if err := store.Put(key, cfg, res); err != nil {
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
				if res, ok := store.Get(key); ok {
					if res.Delivered != 100 && res.Delivered != 101 {
						t.Errorf("torn entry: Delivered=%d", res.Delivered)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	res, ok := store.Get(key)
	if !ok || (res.Delivered != 100 && res.Delivered != 101) {
		t.Fatalf("final entry: ok=%v %+v", ok, res)
	}
	st := store.Stats()
	if st.Hits+st.Misses != lookups.Load()+1 {
		t.Fatalf("counters drifted: %d hits + %d misses != %d lookups", st.Hits, st.Misses, lookups.Load()+1)
	}
	// No stray temp files left behind by the racing writers.
	entries, err := store.scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].key != key {
		t.Fatalf("directory holds %d entries, want exactly the racing key", len(entries))
	}
}

// countingRun runs points through the engine, counting the simulations.
func countingRun(n *atomic.Int64) func(context.Context, int, Point) (dragonfly.Result, error) {
	return func(ctx context.Context, _ int, p Point) (dragonfly.Result, error) {
		n.Add(1)
		return dragonfly.RunContext(ctx, p.Config)
	}
}

// TestCacheWarmRerunExecutesZeroSims is the store acceptance check: a
// repeated campaign with a warm store completes without simulating.
func TestCacheWarmRerunExecutesZeroSims(t *testing.T) {
	store := mustStore(t, t.TempDir(), 0)
	camp := tinyCampaign()

	var sims atomic.Int64
	cold, err := Run(context.Background(), camp, Options{Workers: 2, Cache: store, Run: countingRun(&sims)})
	if err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != int64(len(camp.Points)) {
		t.Fatalf("cold run executed %d sims, want %d", got, len(camp.Points))
	}
	if st := store.Stats(); st.Hits != 0 || st.Misses != int64(len(camp.Points)) {
		t.Fatalf("cold stats: %d hits, %d misses", st.Hits, st.Misses)
	}

	sims.Store(0)
	warm, err := Run(context.Background(), camp, Options{Workers: 2, Cache: store, Run: countingRun(&sims)})
	if err != nil {
		t.Fatal(err)
	}
	if got := sims.Load(); got != 0 {
		t.Fatalf("warm run executed %d sims, want 0", got)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("point %d not served from the store", i)
		}
		if !reflect.DeepEqual(warm[i].Result, cold[i].Result) {
			t.Fatalf("point %d cached result differs:\ncold: %+v\nwarm: %+v", i, cold[i].Result, warm[i].Result)
		}
	}
}

func TestCacheKeyCanonicalization(t *testing.T) {
	var store Store // Key reads no store state
	zero := dragonfly.Config{H: 4, Load: 0.5}
	explicit := zero
	// Spell out every default the zero config implies.
	explicit.PacketPhits = 8
	explicit.Warmup, explicit.Measure = 3000, 6000
	explicit.Threshold, explicit.PBThreshold = 0.45, 0.35
	explicit.RemoteCandidates = 2
	explicit.BufLocal, explicit.BufGlobal = 32, 256
	explicit.InjQueuePackets = 16
	explicit.LatLocal, explicit.LatGlobal = 10, 100
	explicit.Watchdog = 20000
	explicit.MaxCycles = 50 * (3000 + 6000 + 20000)
	explicit.Traffic = dragonfly.Traffic{Kind: dragonfly.UN}
	if store.Key(zero) != store.Key(explicit) {
		t.Fatal("zero config and its explicit defaults hash differently")
	}

	// Worker count never changes results, so it must not change the key.
	workers := zero
	workers.Workers = 8
	if store.Key(zero) != store.Key(workers) {
		t.Fatal("worker count leaked into the cache key")
	}

	// The seed does change results.
	seeded := zero
	seeded.Seed = 3
	if store.Key(zero) == store.Key(seeded) {
		t.Fatal("seed not part of the cache key")
	}

	// ADVG offset 0 means offset 1.
	a, b := zero, zero
	a.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG}
	b.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}
	if store.Key(a) != store.Key(b) {
		t.Fatal("default ADVG offset hashes differently from explicit +1")
	}

	// A burst run ignores Load entirely.
	c, d := zero, zero
	c.BurstPackets, c.Load = 10, 0.2
	d.BurstPackets, d.Load = 10, 0.9
	if store.Key(c) != store.Key(d) {
		t.Fatal("irrelevant Load leaked into a burst cache key")
	}

	// A one-phase workload is the same experiment as the classic trio, in
	// all three spellings.
	phased := dragonfly.Config{H: 4}
	phased.Phases = []dragonfly.PhaseSpec{{Traffic: dragonfly.Traffic{Kind: dragonfly.UN}, Load: 0.5}}
	jobbed := dragonfly.Config{H: 4}
	jobbed.Workload = []dragonfly.JobSpec{{Phases: phased.Phases}}
	ranged := dragonfly.Config{H: 4}
	ranged.Workload = []dragonfly.JobSpec{{FirstNode: 0, LastNode: 1055, Phases: phased.Phases}}
	if store.Key(zero) != store.Key(phased) || store.Key(zero) != store.Key(jobbed) ||
		store.Key(zero) != store.Key(ranged) {
		t.Fatal("one-phase workload spellings hash differently from the trio")
	}

	// The timeline window width changes the result, so it must change the
	// key; a genuinely phased schedule must differ from the one-phase one.
	windowed := zero
	windowed.WindowCycles = 500
	if store.Key(zero) == store.Key(windowed) {
		t.Fatal("WindowCycles not part of the cache key")
	}
	twoPhase := dragonfly.Config{H: 4}
	twoPhase.Phases = []dragonfly.PhaseSpec{
		{Traffic: dragonfly.Traffic{Kind: dragonfly.UN}, Load: 0.5, Duration: 4000},
		{Traffic: dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 4}, Load: 0.5},
	}
	if store.Key(zero) == store.Key(twoPhase) {
		t.Fatal("a phased schedule hashes like a static one")
	}

	// Explicit whole-network job bounds hash like the implicit zero range.
	implicit := dragonfly.Config{H: 4}
	implicit.Workload = []dragonfly.JobSpec{
		{Phases: twoPhase.Phases},
	}
	explicitRange := dragonfly.Config{H: 4}
	explicitRange.Workload = []dragonfly.JobSpec{
		{FirstNode: 0, LastNode: 1055, Phases: twoPhase.Phases}, // h=4: 1056 nodes
	}
	if store.Key(implicit) != store.Key(explicitRange) {
		t.Fatal("implicit whole-network job hashes differently from the explicit range")
	}
}

func TestCacheCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	store := mustStore(t, dir, 0)
	cfg := tinyBase()
	cfg.Mechanism = dragonfly.Minimal
	cfg.Load = 0.2
	key := store.Key(cfg)

	if _, ok := store.Get(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("not json{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(key); ok {
		t.Fatal("corrupt entry reported a hit")
	}

	want := dragonfly.Result{Mechanism: "Minimal", Delivered: 42}
	if err := store.Put(key, cfg, want); err != nil {
		t.Fatal(err)
	}
	got, ok := store.Get(key)
	if !ok || got.Delivered != 42 {
		t.Fatalf("after Put: ok=%v result=%+v", ok, got)
	}
	if st := store.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats: %d hits, %d misses", st.Hits, st.Misses)
	}
}
