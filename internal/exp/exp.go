// Package exp is the experiment orchestrator: it executes a declarative
// campaign — an ordered list of dragonfly.Config points produced by
// composable matrix builders — on a bounded worker pool with deterministic
// per-point seeding, structured progress reporting, streaming JSONL result
// output, cooperative cancellation and an optional content-addressed
// result cache keyed on the canonical configuration and the engine's
// results version, so re-runs and resumed campaigns skip completed points.
//
// Each point is an independent, deterministic simulation, so campaign
// results are bit-identical for any pool size; the across-point
// parallelism here composes with the engine's intra-simulation workers and
// is the better use of cores for the common small-h points.
//
//	points := exp.NewMatrix(base).
//		Mechanisms(dragonfly.RLM, dragonfly.OLM).
//		Loads(0.1, 0.5, 0.9).
//		Points()
//	outs, err := exp.Run(ctx, exp.Campaign{Name: "fig5", Points: points},
//		exp.Options{Workers: 8, Cache: cache, JSONL: w})
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
// are returned in; execution order is whatever the pool gets to first.
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
	// Cached reports the result came from the cache; no simulation ran.
	Cached bool
	// Seconds is the wall-clock time spent producing the result
	// (zero-ish for cache hits; see Record for served points).
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
