package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	dragonfly "repro"
)

// fabricMechs are the mechanisms of the fabric-h6 points, in run order.
var fabricMechs = []dragonfly.Mechanism{dragonfly.OLM, dragonfly.RLM}

// fabricConfigs returns the two back-to-back fabric points: OLM under UN
// at 0.5 and RLM under ADVG+h at 0.3, paper latencies and VCT (the
// defaults), stepped by the given number of workers. The warmup lets the
// network fill before the measurement window; the Timeline covers both.
func fabricConfigs(seed uint64, sz sizes, workers int) []namedConfig {
	h := sz.fabricH
	total := sz.fabricWarmup + sz.fabricMeasure
	base := dragonfly.Config{
		H: h, Warmup: sz.fabricWarmup, Measure: sz.fabricMeasure, WindowCycles: max(total/6, 1),
		Seed: seed, Workers: workers,
	}
	olm, rlm := base, base
	olm.Mechanism, olm.Traffic, olm.Load = dragonfly.OLM, dragonfly.Traffic{Kind: dragonfly.UN}, 0.5
	rlm.Mechanism, rlm.Traffic, rlm.Load = dragonfly.RLM, dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: h}, 0.3
	return []namedConfig{{"OLM/UN@0.5", olm}, {"RLM/ADVG+h@0.3", rlm}}
}

type namedConfig struct {
	name string
	cfg  dragonfly.Config
}

// pointRun is one prepared and stepped point.
type pointRun struct {
	prep, step     time.Duration
	res            dragonfly.Result
	err            error
	mallocs, bytes uint64
}

// passRun is one pass over the fabric points. sims keeps the pass's
// simulators reachable until release, so the live heap can be measured
// with them in it.
type passRun struct {
	wall   time.Duration
	points []pointRun
	sims   []*dragonfly.Sim
}

func (p *passRun) release() { p.sims = nil }

func (p passRun) prep() (d time.Duration) {
	for _, pt := range p.points {
		d += pt.prep
	}
	return d
}

func (p passRun) step() (d time.Duration) {
	for _, pt := range p.points {
		d += pt.step
	}
	return d
}

func (p passRun) cycles() (n int64) {
	for _, pt := range p.points {
		n += runCycles(pt.res)
	}
	return n
}

// reference digests the pass: the digest of its per-point digests, and
// its exact counts.
func (p passRun) reference() reference {
	var ds []string
	var results []dragonfly.Result
	for _, pt := range p.points {
		ds = append(ds, digest(pt.res))
		results = append(results, pt.res)
	}
	return referenceOf(digestBytes([]byte(strings.Join(ds, "\n"))), results)
}

// runFabricPass prepares and runs every point back to back. Every pass
// starts from a collected heap with its free memory returned to the OS,
// so each Prepare faults its pages in as in a fresh process, whatever the
// background scavenger did in between. When traced, allocations during
// stepping are counted per point.
func runFabricPass(ctx context.Context, cfgs []namedConfig, rec *recorder, label string) (passRun, error) {
	debug.FreeOSMemory()
	root := rec.open("bench.pass", label, 0)
	defer root.close()
	var pass passRun
	t0 := time.Now()
	for _, nc := range cfgs {
		var pr pointRun
		sp := rec.open("dragonfly.prepare", nc.name, root.id())
		start := time.Now()
		sim, err := dragonfly.Prepare(nc.cfg)
		pr.prep = time.Since(start)
		sp.close()
		if err != nil {
			return pass, fmt.Errorf("prepare %s: %w", nc.name, err)
		}
		var before, after runtime.MemStats
		if rec != nil {
			runtime.ReadMemStats(&before)
		}
		sp = rec.open("engine.step", nc.name, root.id())
		start = time.Now()
		pr.res, err = sim.RunContext(ctx)
		pr.step = time.Since(start)
		sp.close()
		if rec != nil {
			runtime.ReadMemStats(&after)
			pr.mallocs, pr.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		}
		if ctx.Err() != nil {
			return pass, ctx.Err()
		}
		pr.err = err
		pass.points = append(pass.points, pr)
		pass.sims = append(pass.sims, sim)
	}
	pass.wall = time.Since(t0)
	return pass, nil
}

// checkPass checks every point of a pass and that its digest matches the
// expected one.
func checkPass(chk *checker, cfgs []namedConfig, pass passRun, expect []string, label string) {
	for i, pt := range pass.points {
		name := label + " " + cfgs[i].name
		chk.point(name, pt.res, pt.err)
		got := digest(pt.res)
		chk.check(got == expect[i], "%s: result digest %.12s, expected %.12s", name, got, expect[i])
	}
}

// runFabric is the fabric-h6 workload: one untimed warm-up pass (a fresh
// process's first pass can run slower while the heap grows), then
// measured passes of the two points at Workers=2. The warm-up pass is the
// run's reference: its digests are checked against the golden ones, and
// every later pass must reproduce them. The traced run repeats the
// measured passes with spans and allocation counts, then re-runs the
// points at Workers=1, which must reproduce the same digests.
func runFabric(ctx context.Context, w *bench) error {
	sz := w.size
	cfgs := fabricConfigs(w.seed, sz, 2)
	warm, err := runFabricPass(ctx, cfgs, nil, "warmup")
	if err != nil {
		return err
	}
	warm.release()
	expect := make([]string, len(cfgs))
	for i, pt := range warm.points {
		w.chk.point("warmup "+cfgs[i].name, pt.res, pt.err)
		expect[i] = digest(pt.res)
	}
	w.ref = warm.reference()
	w.record["warmup_sim_cycles_per_s"] = float64(warm.cycles()) / warm.step().Seconds()

	// Set-up is also timed on its own: setupReps Prepare pairs, each
	// started as runFabricPass starts a pass, join the measured passes'
	// Prepare times.
	var setup []float64
	for i := 0; i < sz.setupReps; i++ {
		debug.FreeOSMemory()
		var d time.Duration
		for _, nc := range cfgs {
			t0 := time.Now()
			if _, err := dragonfly.Prepare(nc.cfg); err != nil {
				return fmt.Errorf("prepare %s: %w", nc.name, err)
			}
			d += time.Since(t0)
		}
		setup = append(setup, d.Seconds())
	}

	var passes []passRun
	for i := 0; i < sz.fabricPasses; i++ {
		pass, err := runFabricPass(ctx, cfgs, nil, fmt.Sprintf("pass %d", i))
		if err != nil {
			return err
		}
		checkPass(w.chk, cfgs, pass, expect, fmt.Sprintf("pass %d", i))
		if i < sz.fabricPasses-1 {
			pass.release()
		}
		passes = append(passes, pass)
	}
	// The last pass's simulators are still reachable here.
	heap := liveHeapMiB()
	passes[len(passes)-1].release()

	var rate, pps, walls []float64
	for _, p := range passes {
		setup = append(setup, p.prep().Seconds())
		rate = append(rate, float64(p.cycles())/p.step().Seconds())
		pps = append(pps, float64(len(p.points))/(p.prep()+p.step()).Seconds())
		walls = append(walls, ms(p.wall))
	}
	w.e2e["setup_s"] = median(setup)
	w.e2e["sim_cycles_per_s"] = median(rate)
	w.e2e["points_per_s"] = median(pps)
	w.e2e["campaign_p50_ms"] = median(walls)
	w.layer["campaign_tail_ms"] = tail(walls)
	w.e2e["heap_mib"] = heap
	w.record["campaign_samples"] = len(walls)

	w.record["digests"] = expect
	if w.rec == nil {
		return nil
	}
	return traceFabric(ctx, w, cfgs, expect, passes)
}

// traceFabric is the per-layer part of a traced fabric-h6 run.
func traceFabric(ctx context.Context, w *bench, cfgs []namedConfig, expect []string, untraced []passRun) error {
	sz := w.size
	var traced []passRun
	for i := 0; i < sz.fabricPasses; i++ {
		pass, err := runFabricPass(ctx, cfgs, w.rec, fmt.Sprintf("traced pass %d", i))
		if err != nil {
			return err
		}
		checkPass(w.chk, cfgs, pass, expect, fmt.Sprintf("traced pass %d", i))
		pass.release()
		traced = append(traced, pass)
	}
	serialCfgs := fabricConfigs(w.seed, sz, 1)
	serial, err := runFabricPass(ctx, serialCfgs, w.rec, "serial pass")
	if err != nil {
		return err
	}
	serial.release()
	checkPass(w.chk, serialCfgs, serial, expect, "Workers=1")

	var stepS, prepMS, mallocs, bytes, wallT, wallU []float64
	var stepNS, phits float64
	for _, p := range traced {
		stepS = append(stepS, p.step().Seconds())
		wallT = append(wallT, p.wall.Seconds())
		var m, b float64
		for _, pt := range p.points {
			prepMS = append(prepMS, ms(pt.prep))
			m += float64(pt.mallocs)
			b += float64(pt.bytes)
			stepNS += float64(pt.step.Nanoseconds())
			phits += float64(pt.res.PhitsMoved)
		}
		mallocs = append(mallocs, m)
		bytes = append(bytes, b)
	}
	for _, p := range untraced {
		wallU = append(wallU, p.wall.Seconds())
	}
	l := w.layer
	l["engine.step_s"] = median(stepS)
	l["engine.ns_per_phit"] = ratio(stepNS, phits)
	l["engine.step_allocs"] = median(mallocs)
	l["engine.step_alloc_bytes"] = median(bytes)
	l["engine.serial_step_s"] = serial.step().Seconds()
	l["engine.parallel_speedup"] = ratio(serial.step().Seconds(), median(stepS))
	l["dragonfly.prepare_ms"] = median(prepMS)
	l["trace.overhead_frac"] = median(wallT)/median(wallU) - 1
	return w.tables(sz.fabricH, fabricMechs)
}

// liveHeapMiB is the live heap after a forced collection. The second
// collection empties the sync.Pool victim caches the first one fills.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
