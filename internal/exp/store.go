package exp

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dragonfly "repro"
	"repro/internal/engine"
)

// Store is a content-addressed store of simulation results on disk: one
// JSON file per point, named by the SHA-256 of the canonicalized
// configuration and the engine's results version. Because the engine is
// deterministic, the canonical config fully determines the result, so a
// hit is always safe to reuse — across campaign runs, across tools, and
// across worker counts (Config.Canonical clears Workers). Bumping
// engine.ResultsVersion invalidates every entry at once.
//
// A store may be bounded to a byte budget, with least-recently-used
// eviction — the shape a long-running daemon needs, where the result
// directory would otherwise grow without bound. An in-memory recency
// index is rebuilt from file modification times on open. Eviction never
// removes the entry a Put just wrote, so a budget smaller than a single
// entry keeps exactly that entry rather than silently thrashing; the
// oversized entry is displaced by the next Put.
//
// Entries are written atomically (temp file + rename), so processes
// sharing a directory at worst duplicate work, never corrupt entries;
// unreadable or stale-format entries count as misses and are
// overwritten. All methods are safe for concurrent use.
type Store struct {
	dir          string
	max          int64 // byte budget; 0 = unbounded
	hits, misses atomic.Int64

	mu        sync.Mutex
	index     map[string]*list.Element // key -> lru element
	lru       *list.List               // front = most recently used
	bytes     int64
	evictions int64
}

// Cache is Store under its old name.
//
// Deprecated: use Store. Kept only for the benchmark module, which builds
// against it.
type Cache = Store

// OpenCache opens an unbounded store.
//
// Deprecated: use OpenStore(dir, 0).
func OpenCache(dir string) (*Store, error) { return OpenStore(dir, 0) }

// storeFormat versions the entry file layout itself (not the simulation
// semantics — that is engine.ResultsVersion's job).
const storeFormat = 1

// entry is the on-disk layout. Config is stored canonicalized, purely for
// human inspection of a store directory; only Result is read back.
type entry struct {
	Format        int              `json:"format"`
	EngineVersion int              `json:"engine_version"`
	Config        dragonfly.Config `json:"config"`
	Result        dragonfly.Result `json:"result"`
}

// lruEntry is the per-key payload of the recency list.
type lruEntry struct {
	key  string
	size int64
}

// OpenStore opens (creating if needed) a result store on dir.
// maxBytes <= 0 means unbounded. Existing entries are indexed with file
// modification time as initial recency and trimmed to the budget
// immediately, so reopening a shrunken store converges at once.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: open store: %w", err)
	}
	s := &Store{
		dir:   dir,
		max:   maxBytes,
		index: make(map[string]*list.Element),
		lru:   list.New(),
	}
	entries, err := s.scan()
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].modTime.Before(entries[j].modTime)
	})
	for _, e := range entries { // oldest first, so newest ends up at the front
		s.index[e.key] = s.lru.PushFront(lruEntry{key: e.key, size: e.size})
		s.bytes += e.size
	}
	s.mu.Lock()
	err = s.evictLocked("")
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// diskEntry describes one on-disk entry, for directory scans.
type diskEntry struct {
	key     string
	size    int64
	modTime time.Time
}

// scan lists the entries currently in the store directory, skipping
// in-progress temp files and anything that is not a store entry.
func (s *Store) scan() ([]diskEntry, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("exp: scan store: %w", err)
	}
	var out []diskEntry
	for _, de := range des {
		key, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || de.IsDir() || strings.Contains(key, ".") {
			continue // temp file ("<key>.tmp*") or foreign file
		}
		fi, err := de.Info()
		if err != nil {
			continue // raced with a concurrent removal
		}
		out = append(out, diskEntry{key: key, size: fi.Size(), modTime: fi.ModTime()})
	}
	return out, nil
}

// Key returns the content address of a configuration: the hex SHA-256 of
// its canonical JSON together with the engine results version. It reads
// no store state, so the zero Store computes keys too.
func (s *Store) Key(cfg dragonfly.Config) string {
	canon, err := json.Marshal(cfg.Canonical())
	if err != nil {
		// Config is a flat struct of scalars; Marshal cannot fail on it.
		panic(fmt.Sprintf("exp: marshal config: %v", err))
	}
	h := sha256.New()
	fmt.Fprintf(h, "dragonfly-exp-cache/%d engine/%d\n", storeFormat, engine.ResultsVersion)
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// Get looks a key up, counting the hit or miss and refreshing the key's
// recency on a hit.
func (s *Store) Get(key string) (dragonfly.Result, bool) {
	var e entry
	buf, err := os.ReadFile(s.path(key))
	ok := err == nil && json.Unmarshal(buf, &e) == nil &&
		e.Format == storeFormat && e.EngineVersion == engine.ResultsVersion
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, indexed := s.index[key]; indexed {
		if ok {
			s.lru.MoveToFront(el)
		} else {
			// Indexed but unreadable (corrupt or externally deleted):
			// drop it from the budget so it cannot pin good entries out.
			s.dropLocked(el)
		}
	}
	if !ok {
		return dragonfly.Result{}, false
	}
	return e.Result, true
}

// Put stores a result under key, atomically, then evicts
// least-recently-used entries until the store fits its budget again.
// The entry just written is never evicted by its own Put.
func (s *Store) Put(key string, cfg dragonfly.Config, res dragonfly.Result) error {
	buf, err := json.MarshalIndent(entry{
		Format:        storeFormat,
		EngineVersion: engine.ResultsVersion,
		Config:        cfg.Canonical(),
		Result:        res,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("exp: encode store entry: %w", err)
	}
	buf = append(buf, '\n')
	if err := s.write(key, buf); err != nil {
		return fmt.Errorf("exp: write store entry: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok { // overwrite: replace the old size
		s.dropLocked(el)
	}
	s.index[key] = s.lru.PushFront(lruEntry{key: key, size: int64(len(buf))})
	s.bytes += int64(len(buf))
	return s.evictLocked(key)
}

// write puts buf at key's path through a temp file and a rename.
func (s *Store) write(key string, buf []byte) error {
	tmp, err := os.CreateTemp(s.dir, key+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(buf)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(key))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// evictLocked removes LRU entries until the budget is met, sparing keep.
// Removing a file that is already gone is not an error: a concurrent
// writer sharing the directory may have dropped it.
func (s *Store) evictLocked(keep string) error {
	if s.max <= 0 {
		return nil
	}
	for s.bytes > s.max {
		el := s.lru.Back()
		if el == nil || el.Value.(lruEntry).key == keep {
			return nil
		}
		if err := os.Remove(s.path(el.Value.(lruEntry).key)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("exp: evict store entry: %w", err)
		}
		s.dropLocked(el)
		s.evictions++
	}
	return nil
}

// dropLocked removes an element from the in-memory index only.
func (s *Store) dropLocked(el *list.Element) {
	e := el.Value.(lruEntry)
	s.bytes -= e.size
	s.lru.Remove(el)
	delete(s.index, e.key)
}

// StoreStats is a snapshot of the store's occupancy and traffic.
type StoreStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"` // 0 = unbounded
	Evictions int64 `json:"evictions"`
}

// Stats reports hit/miss counters (since open) and current occupancy.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Entries:   s.lru.Len(),
		Bytes:     s.bytes,
		MaxBytes:  s.max,
		Evictions: s.evictions,
	}
}
