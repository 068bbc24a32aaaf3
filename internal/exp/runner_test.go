package exp

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	dragonfly "repro"
)

// workersCampaign is four points that differ only in Config.Workers,
// which Config.Canonical clears: one store key, four campaign points.
func workersCampaign() Campaign {
	var pts []Point
	for w := 1; w <= 4; w++ {
		cfg := tinyBase()
		cfg.Mechanism = dragonfly.Minimal
		cfg.Load = 0.2
		cfg.Workers = w
		pts = append(pts, Point{Series: "workers", X: float64(w), Config: cfg})
	}
	return Campaign{Name: "workers", Points: pts}
}

// TestRunWithoutStoreRunsEveryPoint: a storeless campaign keys every
// point on its own, so points that share a canonical key still each
// run, and the Run hook sees each campaign index exactly once. A
// scale axis over Config.Workers depends on this.
func TestRunWithoutStoreRunsEveryPoint(t *testing.T) {
	camp := workersCampaign()
	var mu sync.Mutex
	calls := make(map[int]int)
	outs, err := Run(context.Background(), camp, Options{
		Workers: 2,
		Run: func(ctx context.Context, i int, p Point) (dragonfly.Result, error) {
			mu.Lock()
			calls[i]++
			mu.Unlock()
			if p.Config.Workers != camp.Points[i].Config.Workers {
				t.Errorf("index %d got the point with Workers=%d", i, p.Config.Workers)
			}
			return syntheticRun(ctx, i, p)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range camp.Points {
		if calls[i] != 1 {
			t.Errorf("Run hook called %d times for index %d, want 1", calls[i], i)
		}
		if outs[i].Cached || outs[i].Result.Delivered != int64(1000+i) {
			t.Errorf("point %d: cached=%v delivered=%d", i, outs[i].Cached, outs[i].Result.Delivered)
		}
	}
}

// TestRunWithStoreSharesIdenticalPoints: with a store, identical points
// share one simulation and one outcome, and the canonical JSONL is
// byte-identical to the storeless run of the same campaign.
func TestRunWithStoreSharesIdenticalPoints(t *testing.T) {
	camp := tinyCampaign()
	camp.Points = append(camp.Points[:2:2], camp.Points[0]) // point 2 repeats point 0
	runOnce := func(store *Store) ([]Outcome, []byte, int64) {
		t.Helper()
		var sims atomic.Int64
		var buf bytes.Buffer
		outs, err := Run(context.Background(), camp, Options{
			Workers: 3, Cache: store, JSONL: &buf, Run: countingRun(&sims),
		})
		if err != nil {
			t.Fatal(err)
		}
		return outs, buf.Bytes(), sims.Load()
	}

	plain, plainJSONL, plainSims := runOnce(nil)
	if plainSims != 3 {
		t.Fatalf("storeless run simulated %d points, want 3", plainSims)
	}
	outs, jsonl, sims := runOnce(mustStore(t, t.TempDir(), 0))
	if sims != 2 {
		t.Fatalf("run with a store simulated %d points, want 2 (identical points share one run)", sims)
	}
	if !reflect.DeepEqual(outs[0].Result, outs[2].Result) || outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("identical points got different outcomes:\n0: %+v %v\n2: %+v %v",
			outs[0].Result, outs[0].Err, outs[2].Result, outs[2].Err)
	}
	if outs[0].Cached == outs[2].Cached {
		t.Fatalf("exactly one of the identical points should be marked Cached: %v, %v", outs[0].Cached, outs[2].Cached)
	}
	for i := range outs {
		if !reflect.DeepEqual(outs[i].Result, plain[i].Result) {
			t.Fatalf("point %d differs from the storeless run", i)
		}
	}
	if !bytes.Equal(jsonl, plainJSONL) {
		t.Fatal("canonical JSONL with a store differs from the storeless run")
	}
}

// TestRunStorePutFailureKeepsResults: when Store.Put fails, every point
// keeps its result with no error, and Run reports the store failure
// once, at campaign level.
func TestRunStorePutFailureKeepsResults(t *testing.T) {
	dir := t.TempDir()
	store := mustStore(t, dir, 0)
	if err := os.RemoveAll(dir); err != nil { // every Put now fails
		t.Fatal(err)
	}
	camp := tinyCampaign()
	outs, err := Run(context.Background(), camp, Options{Workers: 2, Cache: store, Run: syntheticRun})
	if err == nil {
		t.Fatal("a store that cannot write reported no campaign error")
	}
	if n := strings.Count(err.Error(), "write store entry"); n != 1 {
		t.Fatalf("store failure reported %d times, want once: %v", n, err)
	}
	for i, o := range outs {
		if o.Err != nil || o.Result.Delivered != int64(1000+i) {
			t.Fatalf("point %d lost its result to the store failure: err=%v delivered=%d", i, o.Err, o.Result.Delivered)
		}
	}
	if PointErrors(outs) != nil {
		t.Fatal("a store failure surfaced as a point error")
	}
}
