// Package exp is the experiment orchestrator: it executes a declarative
// campaign — an ordered list of dragonfly.Config points produced by
// composable matrix builders — with deterministic per-point seeding,
// structured progress reporting, canonical JSONL result output,
// cooperative cancellation and an optional content-addressed result
// store (Store) keyed on the canonical configuration and the engine's
// results version, so re-runs and resumed campaigns skip completed
// points.
//
// A campaign runs one way, locally or on dragonsrv: its points go, in
// campaign order, onto a lease queue (internal/exp/queue) that local
// pullers — and on the daemon, remote workers — drain. Identical points
// with a store share one execution, and every fresh result is stored
// before it is delivered. Each point is an independent, deterministic
// simulation, so campaign results are bit-identical for any number of
// pullers; the across-point parallelism here composes with the engine's
// intra-simulation workers and is the better use of cores for the
// common small-h points.
//
//	points := exp.NewMatrix(base).
//		Mechanisms(dragonfly.RLM, dragonfly.OLM).
//		Loads(0.1, 0.5, 0.9).
//		Points()
//	outs, err := exp.Run(ctx, exp.Campaign{Name: "fig5", Points: points},
//		exp.Options{Workers: 8, Cache: store, JSONL: w})
package exp

import (
	"errors"
	"fmt"

	dragonfly "repro"
)

// Point is one experiment of a campaign: a full simulation configuration
// plus its place in a figure (points sharing a Series name form one curve,
// X is the point's x-axis value).
type Point struct {
	Series string
	X      float64
	Config dragonfly.Config
}

// Campaign is an ordered list of points. The order is the order outcomes
// are returned in and points are queued in; execution order is whatever
// the pullers get to first.
type Campaign struct {
	Name   string
	Points []Point
}

// Outcome is the orchestrator's verdict on one point. Per-point simulation
// failures land in Err (never in Run's campaign-level error), so one bad
// point cannot hide the rest of a figure.
type Outcome struct {
	Index  int
	Point  Point
	Result dragonfly.Result
	// Cached reports the result came from the store, or from an
	// identical point's execution; this point ran no simulation.
	Cached bool
	// Seconds is the wall-clock time from the campaign's start to this
	// point's outcome, queue wait included.
	Seconds float64
	Err     error
}

// label names an outcome's point for error and progress messages.
func (o *Outcome) label() string {
	return fmt.Sprintf("point %d (%s x=%g)", o.Index, o.Point.Series, o.Point.X)
}

// PointErrors joins every per-point failure of a campaign into one error,
// or returns nil if all points succeeded. CLIs use it to surface point
// failures uniformly and exit non-zero after reporting what did complete.
func PointErrors(outs []Outcome) error {
	var errs []error
	for i := range outs {
		if outs[i].Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", outs[i].label(), outs[i].Err))
		}
	}
	return errors.Join(errs...)
}
