package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
	"repro/internal/exp/srv"
)

// served is one campaign run through a stack by one client.
type served struct {
	outs        []exp.Outcome
	digest      string // of the canonical JSONL; the bytes are not kept
	status      srv.Status
	firstRecord time.Duration // submit to first SSE point event
	lastRecord  time.Duration // submit to last SSE point event
}

// serve submits a campaign through client and waits for every record,
// digesting the canonical JSONL. Only the digest is kept, so the heap
// measured afterwards holds no benchmark buffer whose capacity would
// depend on the campaign's byte count. Points must already carry their
// seeds.
func serve(ctx context.Context, client *srv.Client, camp exp.Campaign, rec *recorder, parent int64) (served, error) {
	sp := rec.open("client.run", camp.Name, parent)
	rec.own(camp.Name, sp.id())
	defer sp.close()
	var s served
	var buf bytes.Buffer
	start := time.Now()
	opt := exp.Options{
		JSONL: &buf,
		Progress: func(pr exp.Progress) {
			d := time.Since(start)
			if pr.Done == 1 {
				s.firstRecord = d
			}
			s.lastRecord = d
		},
	}
	outs, err := client.Run(ctx, camp, opt)
	if err != nil {
		return s, fmt.Errorf("campaign %s: %w", camp.Name, err)
	}
	s.outs, s.digest, s.status = outs, digestBytes(buf.Bytes()), client.LastStatus()
	return s, nil
}

func results(outs []exp.Outcome) []dragonfly.Result {
	rs := make([]dragonfly.Result, len(outs))
	for i, o := range outs {
		rs[i] = o.Result
	}
	return rs
}

// coldName names the sweep-cold campaign of a seed.
func coldName(seed uint64) string { return fmt.Sprintf("cold-%d", seed) }

// runCold is the sweep-cold workload: one client submits one campaign of
// figure-shaped slices to a service over a fresh store, so every point
// is simulated by the local sim slot or the fleet worker. The round is
// repeated over fresh stores and medians are reported. The untimed
// warm-up round is the run's reference, checked against the golden one;
// every later round must reproduce its canonical JSONL and store counts.
func runCold(ctx context.Context, w *bench) error {
	sz := w.size
	pool, err := genSlices(w.seed, sz.sweepWarmup, sz.sweepMeasure, sz.variants)
	if err != nil {
		return err
	}
	camp := campaignOf(coldName(w.seed), pool)
	n := len(camp.Points)

	var setups, opens, walls, heaps []float64
	var want string // canonical JSONL digest every round must reproduce
	var status srv.Status
	var stats exp.StoreStats
	var recordSeconds float64
	// Round -1 is an untimed warm-up: the first campaign in a fresh
	// process runs slower while the heap grows, as fabric-h6's first pass
	// does. Measured rounds then start from the same state.
	for r := -1; r < sz.coldRounds; r++ {
		var s served
		rr, err := w.round(ctx, filepath.Join(w.dir, fmt.Sprintf("cold%d", r)), sz.setupReps, true, nil,
			func(st *stack) (err error) {
				s, err = serve(ctx, st.client, camp, nil, 0)
				return err
			})
		if err != nil {
			return err
		}
		label := fmt.Sprintf("cold round %d", r)
		checkCold(w.chk, s, n, label)
		if r == -1 {
			want, status, stats = s.digest, s.status, rr.stats
			w.ref = referenceOf(s.digest, results(s.outs))
			for _, o := range s.outs {
				recordSeconds += o.Seconds
			}
		}
		w.chk.check(s.digest == want, "%s: JSONL differs from the warm-up round", label)
		w.chk.check(rr.stats.Hits == stats.Hits && rr.stats.Misses == stats.Misses,
			"%s: store hits/misses %d/%d, warm-up round %d/%d", label, rr.stats.Hits, rr.stats.Misses, stats.Hits, stats.Misses)
		if r == -1 {
			continue
		}
		setups = append(setups, rr.setups...)
		opens = append(opens, rr.opens...)
		walls = append(walls, s.lastRecord.Seconds())
		heaps = append(heaps, rr.heap)
	}

	wall := median(walls)
	w.e2e["setup_s"] = median(setups)
	w.e2e["points_per_s"] = float64(n) / wall
	w.e2e["sim_cycles_per_s"] = float64(w.ref.Cycles) / wall
	w.e2e["campaign_p50_ms"] = wall * 1e3
	w.layer["campaign_tail_ms"] = tail(walls) * 1e3
	w.e2e["heap_mib"] = median(heaps)
	w.record["campaign_samples"] = len(walls)
	w.record["campaign_s"] = walls
	w.record["heap_mib_rounds"] = heaps
	w.record["points"] = n
	// Record.Seconds runs from dispatch to result, queue wait included,
	// so its sum far exceeds the simulation time; kept as evidence.
	w.record["record_seconds_sum"] = recordSeconds
	w.counts["exp.store_hits"] = stats.Hits
	w.counts["exp.store_misses"] = stats.Misses
	w.counts["srv.executed"] = int64(status.Executed)
	if w.rec == nil {
		return nil
	}
	return traceCold(ctx, w, camp, want, wall, opens)
}

// checkCold checks a cold campaign: every point, and that the service
// simulated each one exactly once.
func checkCold(chk *checker, s served, n int, label string) {
	for _, o := range s.outs {
		chk.point(fmt.Sprintf("%s point %d", label, o.Index), o.Result, o.Err)
	}
	chk.check(s.status.Executed == n, "%s: executed %d simulations for %d points", label, s.status.Executed, n)
}

// traceCold is the per-layer part of a traced sweep-cold run: the same
// campaign again through a traced service over another fresh store, then
// a local exp.Run of the same seeded campaign on one slot that times each
// layer call directly and must reproduce the served JSONL byte for byte.
func traceCold(ctx context.Context, w *bench, camp exp.Campaign, want string, untracedWall float64, opens []float64) error {
	var s served
	rr, err := w.round(ctx, filepath.Join(w.dir, "cold-traced"), 1, true, w.rec, func(st *stack) (err error) {
		root := w.rec.open("bench.campaign", camp.Name, 0)
		defer root.close()
		s, err = serve(ctx, st.client, camp, w.rec, root.id())
		return err
	})
	if err != nil {
		return err
	}
	checkCold(w.chk, s, len(camp.Points), "traced cold")
	w.chk.check(s.digest == want, "traced cold: JSONL differs from the untraced campaign")
	w.serviceLayers(rr, []served{s})
	w.layer["trace.overhead_frac"] = s.lastRecord.Seconds()/untracedWall - 1

	local, busy, err := localRun(ctx, w, camp)
	if err != nil {
		return err
	}
	w.chk.check(digestBytes(local) == want, "local exp.Run JSONL differs from the served campaign")
	w.layer["exp.store_open_ms"] = median(opens)
	w.layer["exp.sim_busy_frac"] = busy / (2 * untracedWall)
	return w.tables(sweepH, sweepMechs)
}

// localRun runs the campaign through exp.Run on one slot, calling each
// layer directly and timing it: store key, Prepare, stepping (with its
// allocations), store put into a throwaway store, and the canonical JSONL
// record. It returns the canonical JSONL and the summed Prepare and
// stepping seconds.
func localRun(ctx context.Context, w *bench, camp exp.Campaign) ([]byte, float64, error) {
	store, err := exp.OpenStore(filepath.Join(w.dir, "cold-local"), 0)
	if err != nil {
		return nil, 0, err
	}
	var keyUS, putUS, prepMS, allocs, allocBytes []float64
	var stepNS, phits, busy float64
	run := func(ctx context.Context, i int, p exp.Point) (dragonfly.Result, error) {
		trace := fmt.Sprintf("%s/%d", camp.Name, i)
		root := w.rec.open("exp.point", trace, 0)
		defer root.close()
		sp := w.rec.open("exp.key", trace, root.id())
		t0 := time.Now()
		key := store.Key(p.Config)
		keyUS = append(keyUS, us(time.Since(t0)))
		sp.close()

		sp = w.rec.open("dragonfly.prepare", trace, root.id())
		t0 = time.Now()
		sim, err := dragonfly.Prepare(p.Config)
		prep := time.Since(t0)
		sp.close()
		if err != nil {
			return dragonfly.Result{}, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp = w.rec.open("engine.step", trace, root.id())
		t0 = time.Now()
		res, err := sim.RunContext(ctx)
		step := time.Since(t0)
		sp.close()
		runtime.ReadMemStats(&after)
		if err != nil {
			return res, err
		}
		prepMS = append(prepMS, ms(prep))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
		allocBytes = append(allocBytes, float64(after.TotalAlloc-before.TotalAlloc))
		stepNS += float64(step.Nanoseconds())
		busy += (prep + step).Seconds()
		phits += float64(res.PhitsMoved)

		sp = w.rec.open("exp.store_put", trace, root.id())
		t0 = time.Now()
		err = store.Put(key, p.Config, res)
		putUS = append(putUS, us(time.Since(t0)))
		sp.close()
		return res, err
	}
	var buf bytes.Buffer
	outs, err := exp.Run(ctx, camp, exp.Options{Workers: 1, CanonicalJSONL: true, JSONL: &buf, Run: run})
	if err != nil {
		return nil, 0, fmt.Errorf("local run: %w", err)
	}
	for _, o := range outs {
		w.chk.point(fmt.Sprintf("local point %d", o.Index), o.Result, o.Err)
	}
	w.jsonlLayer(outs)

	l := w.layer
	l["engine.step_s"] = stepNS / 1e9
	l["engine.ns_per_phit"] = ratio(stepNS, phits)
	l["engine.step_allocs"] = mean(allocs)
	l["engine.step_alloc_bytes"] = mean(allocBytes)
	l["dragonfly.prepare_ms"] = median(prepMS)
	l["exp.key_us"] = median(keyUS)
	l["exp.store_put_us"] = median(putUS)
	return buf.Bytes(), busy, nil
}

// jsonlLayer times the canonical JSONL encoding of each outcome.
func (w *bench) jsonlLayer(outs []exp.Outcome) {
	var buf bytes.Buffer
	var xs []float64
	for i := range outs {
		buf.Reset()
		sp := w.rec.open("exp.jsonl_record", fmt.Sprint(i), 0)
		t0 := time.Now()
		if err := exp.WriteCanonicalRecord(&buf, &outs[i]); err != nil {
			w.chk.check(false, "jsonl record %d: %v", i, err)
		}
		xs = append(xs, us(time.Since(t0)))
		sp.close()
	}
	w.layer["exp.jsonl_record_us"] = median(xs)
}

// serviceLayers fills the srv.*, store and lease-queue metrics of a
// traced service round.
func (w *bench) serviceLayers(rr roundResult, ss []served) {
	l := w.layer
	var first []float64
	var executed, fromStore, deduped int
	for _, s := range ss {
		first = append(first, ms(s.firstRecord))
		executed += s.status.Executed
		fromStore += s.status.FromStore
		deduped += s.status.Deduped
	}
	h := rr.http
	l["srv.submit_ms"] = h.latency("submit") * 1e3
	l["srv.stream_ms"] = h.latency("stream") * 1e3
	l["srv.results_post_us"] = h.latency("results_post") * 1e6
	l["srv.first_record_ms"] = median(first)
	l["srv.requests"] = float64(h.requests.Load())
	l["srv.non2xx"] = float64(h.non2xx.Load())
	l["srv.executed"] = float64(executed)
	l["srv.from_store"] = float64(fromStore)
	l["srv.deduped"] = float64(deduped)
	l["exp.store_hits"] = float64(rr.stats.Hits)
	l["exp.store_misses"] = float64(rr.stats.Misses)
	l["exp.store_bytes"] = float64(rr.stats.Bytes)
	w.record["routes"] = h.routeTable()

	h.mu.Lock()
	claims, leases, leased := h.claims, h.leases, h.leased
	h.mu.Unlock()
	l["queue.leases"] = float64(leases)
	l["queue.points_per_lease"] = ratio(float64(leased), float64(claims))
	l["queue.claim_wait_ms"] = h.latency("claim") * 1e3
	l["queue.requeues"] = float64(rr.fleet.Requeues)
	l["queue.expired_leases"] = float64(rr.fleet.ExpiredLeases)
	l["queue.late_discarded"] = float64(rr.fleet.LateDiscarded)
}
