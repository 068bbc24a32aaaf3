// Command dfsweep runs an offered-load sweep for a set of mechanisms and
// prints the latency/throughput series as a gnuplot-style .dat stream or a
// markdown table. Points run concurrently on internal/exp's local pullers;
// Ctrl-C cancels the sweep mid-point.
//
// Example:
//
//	dfsweep -h 4 -mechs RLM,OLM,Valiant -traffic ADVG -offset 1 \
//	        -loads 0.05,0.1,0.2,0.3,0.4,0.5 -metric accepted -format md \
//	        -cache ~/.cache/dfsweep -jsonl points.jsonl
//
// With -remote the campaign executes on a dragonsrv server instead of
// in-process; output — including -jsonl — is byte-identical to a local
// run of the same sweep:
//
//	dfsweep -h 4 -mechs RLM,OLM -loads 0.1,0.3 -remote http://127.0.0.1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	dragonfly "repro"
	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/exp/srv"
	"repro/internal/sweep"
)

func main() {
	var (
		h         = flag.Int("h", 4, "dragonfly parameter (paper: 8; scale presets: 12, 16)")
		mechs     = flag.String("mechs", "Minimal,PiggyBacking,PAR-6/2,RLM,OLM", "comma-separated mechanisms")
		flow      = flag.String("flow", "VCT", "flow control: VCT or WH")
		trafficK  = flag.String("traffic", "UN", "traffic pattern: UN, ADVG, ADVL, MIX")
		offset    = flag.Int("offset", 1, "ADVG/ADVL offset")
		globalPct = flag.Float64("globalpct", 50, "MIX: percent of ADVG+h traffic")
		loads     = flag.String("loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.8,1.0", "comma-separated offered loads")
		faults    = flag.String("faults", "", `fault scenario applied to every point, e.g. "g=0.1" or "router=5;flap@2000+400/100=g0-4" (see README)`)
		stale     = flag.Int64("stale", 0, "cycles the routing view lags behind fault events (stale link state)")
		metric    = flag.String("metric", "accepted", "metric: accepted, latency, netlatency")
		format    = flag.String("format", "dat", "output format: dat or md")
		warmup    = flag.Int64("warmup", 2000, "warmup cycles")
		measure   = flag.Int64("measure", 4000, "measured cycles")
		seed      = flag.Uint64("seed", 1, "random seed")
		par       = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		remote    = flag.String("remote", "", "execute on a dragonsrv server at this base URL (e.g. http://127.0.0.1:8080) instead of in-process")
		cacheDir  = flag.String("cache", "", "result cache directory (empty = no cache; ignored with -remote)")
		jsonlOut  = flag.String("jsonl", "", "stream per-point JSONL results to this file")
		quiet     = flag.Bool("q", false, "suppress progress lines")
	)
	flag.Parse()

	f, err := dragonfly.ParseFlowControl(*flow)
	fatalIf(err)
	base := dragonfly.PaperVCT(*h)
	if f == dragonfly.WH {
		base = dragonfly.PaperWH(*h)
	}
	base.Warmup, base.Measure = *warmup, *measure
	base.Seed = *seed
	base.Traffic, err = cliutil.Traffic(*trafficK, *offset, *globalPct)
	fatalIf(err)
	if *faults != "" {
		base.Faults, err = cliutil.Faults(*faults, *h)
		fatalIf(err)
	}
	base.StaleCycles = *stale

	ms, err := cliutil.Mechanisms(*mechs)
	fatalIf(err)
	ls, err := cliutil.Floats(*loads)
	fatalIf(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opt := sweep.Options{Parallelism: *par, Context: ctx}
	var client *srv.Client
	if *remote != "" {
		client = srv.NewClient(*remote)
		opt.Remote = client
	}
	if *cacheDir != "" && *remote == "" {
		store, err := exp.OpenStore(*cacheDir, 0)
		fatalIf(err)
		opt.Cache = store
	}
	if *jsonlOut != "" {
		jf, err := os.Create(*jsonlOut)
		fatalIf(err)
		defer jf.Close()
		opt.JSONL = jf
	}
	if !*quiet {
		opt.Progress = func(series string, p sweep.Point) {
			if p.Err != nil {
				fmt.Fprintf(os.Stderr, "FAIL %-14s load=%.3f: %v\n", series, p.X, p.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "done %-14s load=%.3f accepted=%.4f lat=%.1f\n",
				series, p.X, p.Result.AcceptedLoad, p.Result.AvgTotalLatency)
		}
	}
	series, sweepErr := sweep.LoadSweep(base, ms, ls, opt)
	if series == nil {
		fatalIf(sweepErr)
	}

	var m sweep.Metric
	switch *metric {
	case "accepted":
		m = sweep.AcceptedLoad
	case "latency":
		m = sweep.TotalLatency
	case "netlatency":
		m = sweep.NetworkLatency
	default:
		fatalIf(fmt.Errorf("unknown metric %q", *metric))
	}
	switch *format {
	case "dat":
		fatalIf(sweep.WriteDAT(os.Stdout, "Offered load (phits/(node*cycle))", m, series))
	case "md":
		fatalIf(sweep.WriteMarkdown(os.Stdout, "load", m, series))
	default:
		fatalIf(fmt.Errorf("unknown format %q", *format))
	}
	if opt.Cache != nil {
		st := opt.Cache.Stats()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses\n", st.Hits, st.Misses)
	}
	if client != nil {
		st := client.LastStatus()
		fmt.Fprintf(os.Stderr, "remote: campaign %s: %d simulated, %d from store, %d deduped\n",
			st.ID, st.Executed, st.FromStore, st.Deduped)
	}
	// Per-point failures were reported by the progress callback as they
	// happened; the joined error decides the exit code after the partial
	// results have been written.
	fatalIf(sweepErr)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfsweep:", err)
		os.Exit(1)
	}
}
