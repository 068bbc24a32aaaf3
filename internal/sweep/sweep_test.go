package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	dragonfly "repro"
	"repro/internal/exp"
)

func tinyBase() dragonfly.Config {
	cfg := dragonfly.PaperVCT(2)
	cfg.LatLocal, cfg.LatGlobal = 4, 16
	cfg.Warmup, cfg.Measure = 400, 800
	cfg.Seed = 7
	return cfg
}

func TestLoadSweepShapes(t *testing.T) {
	series, err := LoadSweep(tinyBase(),
		[]dragonfly.Mechanism{dragonfly.Minimal, dragonfly.RLM},
		[]float64{0.1, 0.3}, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Result.Delivered == 0 {
				t.Fatalf("series %s x=%v delivered nothing", s.Name, p.X)
			}
		}
		if s.Points[0].X != 0.1 || s.Points[1].X != 0.3 {
			t.Fatalf("series %s x order wrong: %v %v", s.Name, s.Points[0].X, s.Points[1].X)
		}
	}
}

func TestLoadSweepRejectsEmpty(t *testing.T) {
	if _, err := LoadSweep(tinyBase(), nil, []float64{0.1}, Options{}); err == nil {
		t.Fatal("empty mechanisms accepted")
	}
	if _, err := LoadSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.RLM}, nil, Options{}); err == nil {
		t.Fatal("empty loads accepted")
	}
}

func TestMixSweep(t *testing.T) {
	series, err := MixSweep(tinyBase(),
		[]dragonfly.Mechanism{dragonfly.RLM},
		[]float64{0, 100}, 0.8, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range series[0].Points {
		if p.Result.Delivered == 0 {
			t.Fatalf("mix %v%% delivered nothing", p.X)
		}
	}
}

func TestBurstSweep(t *testing.T) {
	series, err := BurstSweep(tinyBase(),
		[]dragonfly.Mechanism{dragonfly.RLM},
		[]float64{50}, 5, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := series[0].Points[0]
	if p.Result.ConsumptionCycles <= 0 {
		t.Fatalf("consumption cycles %d", p.Result.ConsumptionCycles)
	}
	if _, err := BurstSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.RLM}, []float64{50}, 0, Options{}); err == nil {
		t.Fatal("zero burst size accepted")
	}
}

func TestThresholdSweep(t *testing.T) {
	series, err := ThresholdSweep(tinyBase(), dragonfly.RLM,
		[]float64{0.3, 0.6}, []float64{0.2}, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	if !strings.Contains(series[0].Name, "30%") {
		t.Fatalf("series name %q lacks threshold", series[0].Name)
	}
}

func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	count := 0
	_, err := LoadSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.Minimal},
		[]float64{0.1, 0.2}, Options{Parallelism: 2, Progress: func(string, Point) {
			mu.Lock()
			count++
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("progress called %d times, want 2", count)
	}
}

func TestLoadsGrid(t *testing.T) {
	g := Loads(0.1, 0.9, 5)
	if len(g) != 5 || g[0] != 0.1 || g[4] != 0.9 {
		t.Fatalf("grid %v", g)
	}
	if len(Loads(0.5, 1, 1)) != 1 {
		t.Fatal("n=1 grid")
	}
}

// TestPerPointErrorSurfacing checks the orchestrator-backed sweep keeps
// going past a failing point: the returned series are complete, the bad
// point carries its error, and the sweep error names it.
func TestPerPointErrorSurfacing(t *testing.T) {
	base := tinyBase()
	base.FlowControl = dragonfly.WH
	base.PacketPhits = 40
	// OLM requires VCT, so its points fail while RLM's succeed.
	series, err := LoadSweep(base,
		[]dragonfly.Mechanism{dragonfly.OLM, dragonfly.RLM},
		[]float64{0.1}, Options{Parallelism: 2})
	if err == nil || !strings.Contains(err.Error(), "OLM") {
		t.Fatalf("sweep error %v does not name the failing series", err)
	}
	if series[0].Points[0].Err == nil {
		t.Fatal("failing point has no per-point error")
	}
	if series[1].Points[0].Err != nil || series[1].Points[0].Result.Delivered == 0 {
		t.Fatalf("healthy series poisoned: %+v", series[1].Points[0])
	}
}

func TestSweepUsesCache(t *testing.T) {
	store, err := exp.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Parallelism: 2, Cache: store}
	first, err := LoadSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.Minimal}, []float64{0.1, 0.3}, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := LoadSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.Minimal}, []float64{0.1, 0.3}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hits := store.Stats().Hits; hits != 2 {
		t.Fatalf("%d store hits on the repeated sweep, want 2", hits)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached sweep differs from the original")
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	series, err := LoadSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.Minimal},
		[]float64{0.1}, Options{Context: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep error = %v", err)
	}
	if series[0].Points[0].Err == nil {
		t.Fatal("canceled point has no error")
	}
}
