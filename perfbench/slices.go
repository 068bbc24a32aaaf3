package main

import (
	"fmt"
	"math/rand/v2"

	dragonfly "repro"
	"repro/internal/exp"
	"repro/internal/topology"
)

// sweepH is the network size of every sweep point: h=2 (36 routers, 72
// nodes), the size of the repository's CI smoke campaigns.
const sweepH = 2

// sweepMechs are the seven mechanisms of the paper's figures (the
// sign-only RLM ablation is left out, as in the figures).
var sweepMechs = []dragonfly.Mechanism{
	dragonfly.Minimal, dragonfly.Valiant, dragonfly.Piggybacking, dragonfly.PAR62,
	dragonfly.RLM, dragonfly.OLM, dragonfly.OFAR,
}

// slice is one figure-shaped piece of a sweep campaign: 7 mechanisms × 10
// x values.
type slice struct {
	name   string
	points []exp.Point
}

// genSlices builds the sweep pool: for each variant, the six slices shaped
// like the paper's figures — load curves under UN, ADVG+h and MIX, burst
// consumption, a phased UN→ADVG+h run with windows and a quiet tail (the
// engine fast-forwards the drained tail), and faulted runs (a random
// global-link fraction, a flapping link, and the flap with a stale
// routing view). Steady points run warmup then measure cycles, the shape
// of the CI smoke campaigns; burst points run until drained. Every point
// carries a Timeline, whose windows cover the whole run, warmup
// included, so conservation and the simulated cycle count are taken from
// it.
//
// Every variant holds each shape once, so the pool's mix of work does not
// depend on the seed. Point seeds come from the workload seed and the
// point's position in generation order, as exp.Options.SeedBase would
// assign them; the seed also shuffles the order of the slices.
func genSlices(seed uint64, warmup, measure int64, variants int) ([]slice, error) {
	p, err := topology.New(sweepH)
	if err != nil {
		return nil, err
	}
	h := sweepH
	un := dragonfly.Traffic{Kind: dragonfly.UN}
	advg := dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: h}
	mix := dragonfly.Traffic{Kind: dragonfly.MIX, GlobalPercent: 50}
	total := warmup + measure
	base := dragonfly.Config{H: h, Warmup: warmup, Measure: measure, WindowCycles: max(total/6, 1)}

	idx, port := p.GlobalPortOfChannel(p.ChannelToGroup(0, h))
	period := max(total/6, 4)
	flap := dragonfly.FlapSpec{
		Link:   dragonfly.LinkID{Router: p.RouterID(0, idx), Port: port},
		At:     period,
		Period: period,
		Down:   period / 2,
		Count:  3,
	}

	var pool []slice
	add := func(name string, m *exp.Matrix) {
		pool = append(pool, slice{name: name, points: m.Mechanisms(sweepMechs...).Points()})
	}
	tens := make([]float64, 10)
	for i := range tens {
		tens[i] = float64(i)
	}
	for v := 0; v < variants; v++ {
		loads := make([]float64, 10)
		for i := range loads {
			loads[i] = 0.05 + 0.09*float64(i) + 0.01*float64(v%4)
		}
		for _, tr := range []struct {
			name string
			t    dragonfly.Traffic
		}{{"UN", un}, {"ADVG+h", advg}, {"MIX", mix}} {
			c := base
			c.Traffic = tr.t
			add(fmt.Sprintf("load-%s/%d", tr.name, v), exp.NewMatrix(c).Loads(loads...))
		}

		burst := base
		add(fmt.Sprintf("burst/%d", v), exp.NewMatrix(burst).XAxis(tens, func(c *dragonfly.Config, x float64) {
			i := int(x)
			c.Traffic = un
			if i >= 5 {
				c.Traffic = advg
			}
			c.BurstPackets = 1<<(i%5) + v%3
		}))

		add(fmt.Sprintf("phased/%d", v), exp.NewMatrix(base).XAxis(loads, func(c *dragonfly.Config, x float64) {
			c.Phases = []dragonfly.PhaseSpec{
				{Traffic: un, Load: x, Duration: total / 3},
				{Traffic: advg, Load: x, Duration: total / 3},
			}
		}))

		add(fmt.Sprintf("faulted/%d", v), exp.NewMatrix(base).XAxis(tens, func(c *dragonfly.Config, x float64) {
			i := int(x)
			switch {
			case i < 4:
				c.Load = loads[2*i+1]
				c.Faults = &dragonfly.FaultSpec{GlobalFraction: 0.1}
			case i < 7:
				c.Load = loads[3*(i-4)+1]
				c.Faults = &dragonfly.FaultSpec{Flaps: []dragonfly.FlapSpec{flap}}
			default:
				c.Load = loads[3*(i-7)+1]
				c.Faults = &dragonfly.FaultSpec{Flaps: []dragonfly.FlapSpec{flap}}
				c.StaleCycles = period / 4
			}
		}))
	}

	n := 0
	for _, s := range pool {
		for j := range s.points {
			s.points[j].Config.Seed = exp.PointSeed(seed, n)
			n++
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x511ce))
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// campaignOf concatenates slices into one campaign.
func campaignOf(name string, ss []slice) exp.Campaign {
	var pts []exp.Point
	for _, s := range ss {
		pts = append(pts, s.points...)
	}
	return exp.Campaign{Name: name, Points: pts}
}
