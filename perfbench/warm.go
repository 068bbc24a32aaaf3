package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/exp/srv"
)

// warmClients is the number of closed-loop clients of sweep-warm.
const warmClients = 2

// prefill simulates the slices into a store directory through exp.Run on
// two slots, untimed. It sets the run's reference and returns the
// expected canonical JSONL digest of each slice when submitted on its
// own.
func prefill(ctx context.Context, w *bench, dir string, ss []slice) ([]string, error) {
	cache, err := exp.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	_, ref, want, err := sweepReference(ctx, w.chk, w.seed, ss, cache)
	if err != nil {
		return nil, err
	}
	w.ref = ref
	return want, nil
}

// loopResult is one closed-loop phase of sweep-warm.
type loopResult struct {
	wall   time.Duration
	lat    []float64 // campaign latencies, ms
	served []served
	points int
	cycles int64
}

// closedLoop runs warmClients clients against the stack. Client c owns
// the slices whose index is c modulo warmClients, so concurrent campaigns
// never share a point and every store lookup is a hit that no in-flight
// twin absorbs. It submits requests campaigns one after another, going
// through its slices in a fresh seeded order each time round, so every
// slice is served equally often. Each served slice must match its
// prefilled JSONL and run no simulation.
func closedLoop(ctx context.Context, w *bench, st *stack, ss []slice, want []string, requests int, label string) (loopResult, error) {
	var (
		res  loopResult
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make([]error, warmClients)
	)
	t0 := time.Now()
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := srv.NewClient(st.ts.URL)
			r := rand.New(rand.NewPCG(w.seed, uint64(c)))
			var mine []int
			for i := c; i < len(ss); i += warmClients {
				mine = append(mine, i)
			}
			root := w.rec.open("bench.loop", fmt.Sprintf("%s/client%d", label, c), 0)
			defer root.close()
			for k := 0; k < requests; k++ {
				if k%len(mine) == 0 {
					r.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
				}
				si := mine[k%len(mine)]
				camp := exp.Campaign{Name: fmt.Sprintf("%s-%d-%d-%s", label, c, k, ss[si].name), Points: ss[si].points}
				s, err := serve(ctx, client, camp, w.rec, root.id())
				if err != nil {
					errs[c] = err
					return
				}
				w.chk.check(s.digest == want[si], "%s: JSONL differs from the prefilled lines", camp.Name)
				w.chk.check(s.status.Executed == 0, "%s: warm campaign simulated %d points", camp.Name, s.status.Executed)
				var cycles int64
				for _, o := range s.outs {
					cycles += runCycles(o.Result)
				}
				s.outs = nil
				mu.Lock()
				res.lat = append(res.lat, ms(s.lastRecord))
				res.served = append(res.served, s)
				res.points += len(camp.Points)
				res.cycles += cycles
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	return res, errors.Join(errs...)
}

// runWarm is the sweep-warm workload: the slices are simulated into a
// store untimed; then, in each round, a fresh service reopens the store
// and two closed-loop clients resubmit slices that are all served from
// it. Rounds bound the memory the service keeps for finished campaigns,
// and every round must repeat the first one's store counts.
func runWarm(ctx context.Context, w *bench) error {
	sz := w.size
	ss, err := genSlices(w.seed, sz.sweepWarmup, sz.sweepMeasure, sz.variants)
	if err != nil {
		return err
	}
	dir := filepath.Join(w.dir, "warm")
	want, err := prefill(ctx, w, dir, ss)
	if err != nil {
		return err
	}

	var setups, opens, rates, cps, lat, heaps []float64
	var total loopResult
	var executed int64
	var stats exp.StoreStats
	for r := 0; r < sz.warmRounds; r++ {
		var loop loopResult
		rr, err := w.round(ctx, dir, sz.setupReps, false, nil, func(st *stack) (err error) {
			loop, err = closedLoop(ctx, w, st, ss, want, sz.warmRequests, fmt.Sprintf("warm%d", r))
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, rr.setups...)
		opens = append(opens, rr.opens...)
		heaps = append(heaps, rr.heap)
		rates = append(rates, float64(loop.points)/loop.wall.Seconds())
		cps = append(cps, float64(loop.cycles)/loop.wall.Seconds())
		lat = append(lat, loop.lat...)
		total.points += loop.points
		total.wall += loop.wall
		for _, s := range loop.served {
			executed += int64(s.status.Executed)
		}
		if r == 0 {
			stats = rr.stats
		}
		w.chk.check(rr.stats.Hits == stats.Hits && rr.stats.Misses == stats.Misses,
			"warm round %d: store hits/misses %d/%d, first round %d/%d", r, rr.stats.Hits, rr.stats.Misses, stats.Hits, stats.Misses)
	}

	w.e2e["setup_s"] = median(setups)
	w.e2e["points_per_s"] = median(rates)
	w.e2e["sim_cycles_per_s"] = median(cps)
	w.e2e["campaign_p50_ms"] = median(lat)
	w.layer["campaign_tail_ms"] = tail(lat)
	w.e2e["heap_mib"] = median(heaps)
	w.record["campaign_samples"] = len(lat)
	w.record["points"] = total.points
	w.counts["exp.store_hits"] = stats.Hits
	w.counts["exp.store_misses"] = stats.Misses
	w.counts["srv.executed"] = executed
	if w.rec == nil {
		return nil
	}
	return traceWarm(ctx, w, ss, want, total.wall.Seconds()/float64(sz.warmRounds), opens)
}

// traceWarm is the per-layer part of a traced sweep-warm run: one round
// against a traced service over the same store, then direct timings of
// the store reads and JSONL encoding the loop exercised.
func traceWarm(ctx context.Context, w *bench, ss []slice, want []string, untracedWall float64, opens []float64) error {
	dir := filepath.Join(w.dir, "warm")
	var loop loopResult
	rr, err := w.round(ctx, dir, 1, false, w.rec, func(st *stack) (err error) {
		loop, err = closedLoop(ctx, w, st, ss, want, w.size.warmRequests, "traced")
		return err
	})
	if err != nil {
		return err
	}
	w.serviceLayers(rr, loop.served)
	w.layer["exp.store_open_ms"] = median(opens)
	w.layer["trace.overhead_frac"] = loop.wall.Seconds()/untracedWall - 1

	// Direct store reads on a second handle, so the service's counters
	// stay exact.
	store, err := exp.OpenStore(dir, 0)
	if err != nil {
		return err
	}
	var getUS, keyUS []float64
	var outs []exp.Outcome
	for _, s := range ss {
		for j, p := range s.points {
			trace := fmt.Sprintf("%s/%d", s.name, j)
			sp := w.rec.open("exp.key", trace, 0)
			t0 := time.Now()
			key := store.Key(p.Config)
			keyUS = append(keyUS, us(time.Since(t0)))
			sp.close()
			sp = w.rec.open("exp.store_get", trace, 0)
			t0 = time.Now()
			res, ok := store.Get(key)
			getUS = append(getUS, us(time.Since(t0)))
			sp.close()
			w.chk.check(ok, "%s: prefilled point missing from the store", trace)
			outs = append(outs, exp.Outcome{Index: j, Point: p, Result: res})
		}
	}
	w.layer["exp.key_us"] = median(keyUS)
	w.layer["exp.store_get_us"] = median(getUS)
	w.jsonlLayer(outs)
	return w.tables(sweepH, sweepMechs)
}
