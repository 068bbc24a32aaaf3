// Package sweep builds the point lists behind the paper's experiments:
// offered-load sweeps (Figures 4, 5, 7, 8 and 10, 11), traffic-mix sweeps
// (Figures 6a, 9a) and burst-consumption experiments (Figures 6b, 9b).
// The sweep functions compose the campaign via internal/exp's matrix
// builder, execute it with exp.Run — inheriting its cancellation,
// result store and canonical JSONL — and fold the outcomes back
// into per-mechanism Series for the figure renderers in format.go.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"io"

	dragonfly "repro"
	"repro/internal/exp"
	"repro/internal/topology"
)

// Point is one simulated configuration together with its x-axis value.
type Point struct {
	X      float64 // offered load, global-traffic percent, or threshold
	Result dragonfly.Result
	Err    error
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Options bound the sweep execution.
type Options struct {
	// Parallelism is the number of concurrently running simulations
	// (default: GOMAXPROCS).
	Parallelism int
	// Progress, when non-nil, receives a line per finished point.
	Progress func(series string, p Point)
	// Context, when non-nil, cancels the sweep: in-flight simulations
	// abort at their next cycle check, unstarted points record the
	// context's error.
	Context context.Context
	// Cache, when non-nil, is the result store that serves repeated
	// points without simulating. Ignored when Remote is set — the
	// server has its own store.
	Cache *exp.Store
	// JSONL, when non-nil, receives one canonical JSON line per point
	// (campaign order, volatile fields zeroed; see exp.Options.JSONL),
	// so the stream for a given campaign is byte-identical across
	// worker counts, store states, and local versus remote execution.
	JSONL io.Writer
	// Remote, when non-nil, executes the campaign on a dragonsrv server
	// instead of in-process (srv.Client implements this). Progress and
	// JSONL behave exactly as they do locally.
	Remote Runner
}

// Runner executes a campaign with exp.Run's contract. srv.Client is the
// remote implementation; the zero Options use exp.Run itself.
type Runner interface {
	Run(ctx context.Context, camp exp.Campaign, opt exp.Options) ([]exp.Outcome, error)
}

// exec runs the campaign and folds the outcomes into series. The campaign
// must be series-major: len(series)*pointsPer points, the outcomes of
// series si occupying indices [si*pointsPer, (si+1)*pointsPer) — the
// layout exp.Matrix generates when the series axes precede the x axis.
// The returned error joins every per-point failure; the series are
// complete (failed points carry their error) even when it is non-nil.
func exec(camp exp.Campaign, series []Series, pointsPer int, opt Options) ([]Series, error) {
	eopt := exp.Options{
		Workers: opt.Parallelism,
		Cache:   opt.Cache,
		JSONL:   opt.JSONL,
	}
	if opt.Remote != nil {
		eopt.Cache = nil
	}
	if opt.Progress != nil {
		eopt.Progress = func(pr exp.Progress) {
			o := pr.Outcome
			opt.Progress(o.Point.Series, Point{X: o.Point.X, Result: o.Result, Err: o.Err})
		}
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	run := exp.Run
	if opt.Remote != nil {
		run = opt.Remote.Run
	}
	outs, runErr := run(ctx, camp, eopt)
	for _, o := range outs {
		si, pi := o.Index/pointsPer, o.Index%pointsPer
		series[si].Points[pi] = Point{X: o.Point.X, Result: o.Result, Err: o.Err}
	}
	if err := errors.Join(runErr, exp.PointErrors(outs)); err != nil {
		return series, fmt.Errorf("sweep: %w", err)
	}
	return series, nil
}

// newSeries allocates one empty curve per name, pointsPer points each.
func newSeries(names []string, pointsPer int) []Series {
	series := make([]Series, len(names))
	for i, name := range names {
		series[i] = Series{Name: name, Points: make([]Point, pointsPer)}
	}
	return series
}

func mechNames(mechanisms []dragonfly.Mechanism) []string {
	names := make([]string, len(mechanisms))
	for i, m := range mechanisms {
		names[i] = m.String()
	}
	return names
}

// LoadSweep sweeps offered load for each mechanism over the base
// configuration (base.Traffic, flow control etc. are kept; Load and
// Mechanism vary). It returns one series per mechanism, points ordered as
// in loads.
func LoadSweep(base dragonfly.Config, mechanisms []dragonfly.Mechanism, loads []float64, opt Options) ([]Series, error) {
	if len(mechanisms) == 0 || len(loads) == 0 {
		return nil, fmt.Errorf("sweep: empty mechanism or load list")
	}
	camp := exp.NewMatrix(base).
		Mechanisms(mechanisms...).
		Loads(loads...).
		Campaign("load-sweep")
	return exec(camp, newSeries(mechNames(mechanisms), len(loads)), len(loads), opt)
}

// MixSweep sweeps the ADVG+h / ADVL+1 traffic mix at fixed offered load
// (the paper uses 1.0) for each mechanism (Figures 6a, 9a).
func MixSweep(base dragonfly.Config, mechanisms []dragonfly.Mechanism, percents []float64, load float64, opt Options) ([]Series, error) {
	if len(mechanisms) == 0 || len(percents) == 0 {
		return nil, fmt.Errorf("sweep: empty mechanism or percent list")
	}
	base.Load = load
	base.BurstPackets = 0
	camp := exp.NewMatrix(base).
		Mechanisms(mechanisms...).
		GlobalPercents(percents...).
		Campaign("mix-sweep")
	return exec(camp, newSeries(mechNames(mechanisms), len(percents)), len(percents), opt)
}

// BurstSweep runs the burst-consumption experiment over the traffic mix:
// every node sends packetsPerNode packets and the consumption time is
// reported (Figures 6b, 9b).
func BurstSweep(base dragonfly.Config, mechanisms []dragonfly.Mechanism, percents []float64, packetsPerNode int, opt Options) ([]Series, error) {
	if packetsPerNode <= 0 {
		return nil, fmt.Errorf("sweep: burst needs packetsPerNode > 0")
	}
	base.BurstPackets = packetsPerNode
	camp := exp.NewMatrix(base).
		Mechanisms(mechanisms...).
		GlobalPercents(percents...).
		Campaign("burst-sweep")
	return exec(camp, newSeries(mechNames(mechanisms), len(percents)), len(percents), opt)
}

// FaultSweep sweeps the global-link failure fraction at the base config's
// offered load for each mechanism — the resilience figure. Fraction 0 is
// the pristine network; each faulted point draws its failed links
// deterministically from the base seed.
func FaultSweep(base dragonfly.Config, mechanisms []dragonfly.Mechanism, fractions []float64, opt Options) ([]Series, error) {
	if len(mechanisms) == 0 || len(fractions) == 0 {
		return nil, fmt.Errorf("sweep: empty mechanism or fraction list")
	}
	camp := exp.NewMatrix(base).
		Mechanisms(mechanisms...).
		XAxis(fractions, func(c *dragonfly.Config, x float64) {
			if x > 0 {
				c.Faults = &dragonfly.FaultSpec{GlobalFraction: x}
			} else {
				c.Faults = nil
			}
		}).
		Campaign("fault-sweep")
	return exec(camp, newSeries(mechNames(mechanisms), len(fractions)), len(fractions), opt)
}

// DegradationSweep sweeps a composite failure severity for each mechanism
// at the base config's load and traffic — the graceful-degradation figure.
// Severity s kills router index 0 of groups 1..s from the start and flaps
// the base pattern's pathological global channel (group 0's channel to
// group h, the one ADVG+h traffic concentrates on) for s periods across
// the measurement window, so the x axis escalates hard capacity loss and
// routing-table churn together. Severity 0 is the pristine baseline.
// Severities are clamped nowhere: callers keep s+1 <= 2h²+1 groups.
func DegradationSweep(base dragonfly.Config, mechanisms []dragonfly.Mechanism, severities []int, opt Options) ([]Series, error) {
	if len(mechanisms) == 0 || len(severities) == 0 {
		return nil, fmt.Errorf("sweep: empty mechanism or severity list")
	}
	h := base.H
	if h == 0 {
		h = 4 // Config's documented default
	}
	p, err := topology.New(h)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	warmup, measure := base.Warmup, base.Measure
	if warmup == 0 {
		warmup = 3000
	}
	if measure == 0 {
		measure = 6000
	}
	idx, port := p.GlobalPortOfChannel(p.ChannelToGroup(0, h))
	flapLink := dragonfly.LinkID{Router: p.RouterID(0, idx), Port: port}
	period := measure / 8
	if period < 4 {
		period = 4 // keep 0 < Down < Period for toy measurement windows
	}
	xs := make([]float64, len(severities))
	for i, s := range severities {
		xs[i] = float64(s)
	}
	camp := exp.NewMatrix(base).
		Mechanisms(mechanisms...).
		XAxis(xs, func(c *dragonfly.Config, x float64) {
			s := int(x)
			if s <= 0 {
				c.Faults = nil
				return
			}
			spec := &dragonfly.FaultSpec{}
			for g := 1; g <= s && g < p.Groups; g++ {
				spec.Routers = append(spec.Routers, dragonfly.RouterFault{Router: p.RouterID(g, 0)})
			}
			spec.Flaps = []dragonfly.FlapSpec{{
				Link:   flapLink,
				At:     warmup + period/2,
				Period: period,
				Down:   period / 2,
				Count:  s,
			}}
			c.Faults = spec
		}).
		Campaign("degradation-sweep")
	return exec(camp, newSeries(mechNames(mechanisms), len(severities)), len(severities), opt)
}

// ThresholdSweep sweeps the misrouting threshold for one mechanism over
// offered load (Figures 10, 11). Thresholds are fractions (0.45 = 45%).
func ThresholdSweep(base dragonfly.Config, mechanism dragonfly.Mechanism, thresholds, loads []float64, opt Options) ([]Series, error) {
	if len(thresholds) == 0 || len(loads) == 0 {
		return nil, fmt.Errorf("sweep: empty threshold or load list")
	}
	base.Mechanism = mechanism
	names := make([]string, len(thresholds))
	for i, th := range thresholds {
		names[i] = fmt.Sprintf("%s th=%.0f%%", mechanism, th*100)
	}
	camp := exp.NewMatrix(base).
		Axis(len(thresholds),
			func(i int) string { return names[i] },
			func(c *dragonfly.Config, i int) { c.Threshold = thresholds[i] }).
		Loads(loads...).
		Campaign("threshold-sweep")
	return exec(camp, newSeries(names, len(loads)), len(loads), opt)
}

// Loads returns an evenly spaced load grid [from, to] with n points,
// a convenience for figure scripts.
func Loads(from, to float64, n int) []float64 {
	if n < 2 {
		return []float64{from}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = from + (to-from)*float64(i)/float64(n-1)
	}
	return out
}
