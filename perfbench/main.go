// Command perfbench is the repository benchmark. It drives the simulator
// and its campaign service through their Go APIs — dragonfly.Prepare and
// Sim.RunContext, exp.OpenStore and Store, srv.New, Server.Handler,
// Client and NewWorker served in-process over loopback — on one of three
// workloads, checks every output, and prints one JSON result line last
// on standard output. See README.md in this directory.
//
//	go run . --workload fabric-h6 --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	dragonfly "repro"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_cycles_per_s", "1/s"},
	{"points_per_s", "1/s"},
	{"campaign_p50_ms", "ms"},
	{"heap_mib", "MiB"},
	{"ok_frac", "frac"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// layer the workload does not reach reports 0. campaign_tail_ms is the
// tail of the traced run's untraced phase; run to run it spread too much
// to gate on.
var perLayer = []metricDef{
	{"failed_frac", "frac"},
	{"campaign_tail_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"self.bench_s", "s"},
	{"self.client_s", "s"},
	{"self.srv_s", "s"},
	{"self.queue_s", "s"},
	{"self.exp_s", "s"},
	{"self.dragonfly_s", "s"},
	{"self.engine_s", "s"},
	{"self.topology_s", "s"},
	{"self.core_s", "s"},
	{"engine.ns_per_phit", "ns"},
	{"engine.step_s", "s"},
	{"engine.step_allocs", "count"},
	{"engine.step_alloc_bytes", "B"},
	{"engine.serial_step_s", "s"},
	{"engine.parallel_speedup", "x"},
	{"engine.phits", "count"},
	{"engine.cycles", "count"},
	{"engine.delivered", "count"},
	{"dragonfly.prepare_ms", "ms"},
	{"topology.build_ms", "ms"},
	{"core.tables_ms", "ms"},
	{"core.route_planned_ns", "ns"},
	{"core.build_plan_ns", "ns"},
	{"exp.store_put_us", "us"},
	{"exp.key_us", "us"},
	{"exp.sim_busy_frac", "frac"},
	{"exp.store_get_us", "us"},
	{"exp.jsonl_record_us", "us"},
	{"exp.store_open_ms", "ms"},
	{"exp.store_hits", "count"},
	{"exp.store_misses", "count"},
	{"exp.store_bytes", "B"},
	{"queue.leases", "count"},
	{"queue.points_per_lease", "ratio"},
	{"queue.claim_wait_ms", "ms"},
	{"queue.requeues", "count"},
	{"queue.expired_leases", "count"},
	{"queue.late_discarded", "count"},
	{"srv.submit_ms", "ms"},
	{"srv.first_record_ms", "ms"},
	{"srv.stream_ms", "ms"},
	{"srv.results_post_us", "us"},
	{"srv.requests", "count"},
	{"srv.non2xx", "count"},
	{"srv.executed", "count"},
	{"srv.from_store", "count"},
	{"srv.deduped", "count"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"fabric-h6":  runFabric,
	"sweep-cold": runCold,
	"sweep-warm": runWarm,
}

func workloadNames() []string {
	return slices.Sorted(maps.Keys(workloads))
}

// sizes fixes how much work a run does. Work never depends on elapsed
// time, so every count repeats exactly for a seed; sizesFor scales it so a
// run measures about the requested seconds on the reference box (2 CPUs).
type sizes struct {
	fabricH       int
	fabricWarmup  int64 // simulated cycles per fabric point before measuring
	fabricMeasure int64 // measured cycles per fabric point
	fabricPasses  int   // measured passes (after one warm-up pass)
	sweepWarmup   int64 // per steady sweep point, as in the CI smoke campaigns
	sweepMeasure  int64
	variants      int // sweep slices: 6 slice shapes × variants
	warmRequests  int // campaigns each sweep-warm client submits per round
	coldRounds    int // service lifetimes per sweep-cold run
	warmRounds    int // service lifetimes per sweep-warm run
	setupReps     int // service set-ups per sweep round; extra Prepare pairs on fabric-h6
	routeHeads    int // packets per routing micro-benchmark round
	routeRounds   int
}

func sizesFor(seconds int) sizes {
	return sizes{
		fabricH:       6,
		fabricWarmup:  500,
		fabricMeasure: 1000,
		fabricPasses:  max(2, seconds/5),
		sweepWarmup:   400,
		sweepMeasure:  800,
		variants:      max(1, seconds/20),
		warmRequests:  6 * max(1, seconds*8/6),
		coldRounds:    5,
		warmRounds:    5,
		setupReps:     25,
		routeHeads:    4096,
		routeRounds:   9,
	}
}

// bench is one benchmark run: its inputs, checker, optional span
// recorder, and the values it reports.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	size     sizes
	dir      string    // work directory for stores, removed at the end
	chk      *checker  // every checked operation
	rec      *recorder // nil: untraced
	golden   map[string]reference
	ref      reference // set by the workload before it measures

	e2e    map[string]float64
	layer  map[string]float64
	counts map[string]int64 // exact counts: repeat bit for bit per seed
	record map[string]any   // more run-record fields
}

func newBench(workload string, seed uint64, seconds int, size sizes, dir string, traced bool, golden map[string]reference) *bench {
	w := &bench{
		workload: workload, seed: seed, seconds: seconds, size: size, dir: dir, golden: golden,
		chk: &checker{}, e2e: map[string]float64{}, layer: map[string]float64{},
		counts: map[string]int64{}, record: map[string]any{},
	}
	if traced {
		w.rec = newRecorder()
	}
	for _, m := range perLayer {
		w.layer[m.name] = 0
	}
	return w
}

// run executes the workload and fills in the derived metrics.
func (w *bench) run(ctx context.Context) error {
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return err
	}
	drive, ok := workloads[w.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", w.workload)
	}
	if err := drive(ctx, w); err != nil {
		return err
	}
	w.checkGolden()
	w.counts["engine.phits"], w.counts["engine.cycles"], w.counts["engine.delivered"] = w.ref.Phits, w.ref.Cycles, w.ref.Delivered
	if w.rec != nil {
		w.layer["engine.phits"], w.layer["engine.cycles"], w.layer["engine.delivered"] = float64(w.ref.Phits), float64(w.ref.Cycles), float64(w.ref.Delivered)
	}
	attempted, failed := w.chk.counts()
	w.e2e["ok_frac"] = 1 - ratio(float64(failed), float64(attempted))
	w.layer["failed_frac"] = ratio(float64(failed), float64(attempted))
	for layer, s := range w.rec.selfTimes() {
		w.layer["self."+layer+"_s"] = s
	}
	return nil
}

// tables fills the table-construction and routing micro-benchmark
// metrics: tables at the workload's network size and mechanisms, routing
// at fabric-h6's size and mechanisms.
func (w *bench) tables(h int, mechs []dragonfly.Mechanism) error {
	topo, tabs, err := tableTimes(h, mechs, 5, w.rec)
	if err != nil {
		return err
	}
	w.layer["topology.build_ms"], w.layer["core.tables_ms"] = topo, tabs
	build, replay, err := routeTimes(w.size.fabricH, fabricMechs, w.seed, w.size.routeHeads, w.size.routeRounds, w.rec)
	if err != nil {
		return err
	}
	w.layer["core.build_plan_ns"], w.layer["core.route_planned_ns"] = build, replay
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the final line: end-to-end metrics untraced, per-layer
// metrics traced.
func (w *bench) result() resultLine {
	attempted, failed := w.chk.counts()
	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, w.e2e
	if w.rec != nil {
		defs, vals = perLayer, w.layer
	}
	for _, m := range defs {
		line.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return line
}

func main() {
	var (
		workload = flag.String("workload", "", "fabric-h6, sweep-cold or sweep-warm")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "about how long to measure; sizes the work")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		out      = flag.String("out", ".bench_build/out", "directory for the report and span files")
		golden   = flag.String("write-golden", "", "instead of measuring, merge the golden references of every workload at --seconds into this file")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// Every run must end within 180 s; fail cleanly before that.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if *golden != "" {
		if err := writeGolden(context.Background(), *golden, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	refs, err := parseGolden(goldenJSON)
	if err != nil {
		fatal(err)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace)
	dir, err := os.MkdirTemp(*out, base+"-work-")
	if err != nil {
		fatal(err)
	}
	w := newBench(*workload, *seed, *seconds, sizesFor(*seconds), dir, *trace == 1, refs)
	err = w.run(ctx)
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}

	record := runRecord(w)
	line := w.result()
	if err := writeReport(filepath.Join(*out, base+".json"), record, w); err != nil {
		fatal(err)
	}
	if err := w.rec.write(filepath.Join(*out, base+"-spans.jsonl")); err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"run_record": record}); err != nil {
		fatal(err)
	}
	if err := enc.Encode(line); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
