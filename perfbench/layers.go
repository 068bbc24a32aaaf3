package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	dragonfly "repro"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/topology"
)

// tableTimes times the two table constructions that Prepare runs, at network
// size h: topology.New plus NewRouteTable, and core.NewTables averaged
// over the given mechanisms. Each is repeated reps times; medians in ms.
func tableTimes(h int, mechs []dragonfly.Mechanism, reps int, rec *recorder) (topoMS, tablesMS float64, err error) {
	var topo, tabs []float64
	trace := fmt.Sprintf("h=%d", h)
	for i := 0; i < reps; i++ {
		sp := rec.open("topology.build", trace, 0)
		t0 := time.Now()
		p, err := topology.New(h)
		if err != nil {
			return 0, 0, fmt.Errorf("topology: %w", err)
		}
		topology.NewRouteTable(p)
		topo = append(topo, ms(time.Since(t0)))
		sp.close()

		var total float64
		for _, m := range mechs {
			spec, err := core.ParseSpec(m.String())
			if err != nil {
				return 0, 0, err
			}
			sp := rec.open("core.tables", m.String(), 0)
			t0 := time.Now()
			if _, err := core.NewTables(spec, core.Config{Topo: p}); err != nil {
				return 0, 0, fmt.Errorf("core tables: %w", err)
			}
			total += ms(time.Since(t0))
			sp.close()
		}
		tabs = append(tabs, total/float64(len(mechs)))
	}
	return median(topo), median(tabs), nil
}

// stubView is an allocation-free core.View over one router: a flat
// per-(port, VC) occupancy array and a blocked flag, no faults.
type stubView struct {
	occ     []int
	blocked []bool
}

const stubVCs = 4   // covers every mechanism's VC count
const stubCap = 256 // View requires one capacity per port; one for all ports satisfies it

func newStubView(p *topology.P, r *rand.Rand) *stubView {
	n := p.Ports * stubVCs
	v := &stubView{occ: make([]int, n), blocked: make([]bool, n)}
	for i := range v.occ {
		// Half the outputs congested and unclaimable, so the misrouting
		// trigger fires and the candidate evaluation runs.
		if r.IntN(2) == 0 {
			v.occ[i], v.blocked[i] = stubCap-r.IntN(8), true
		} else {
			v.occ[i] = r.IntN(stubCap / 4)
		}
	}
	return v
}

func (v *stubView) CanClaim(port, vc, _ int) bool { return !v.blocked[port*stubVCs+vc] }
func (v *stubView) CanStart(port, vc, size int) bool {
	return stubCap-v.occ[port*stubVCs+vc] >= size
}
func (v *stubView) Occupancy(port, vc int) int { return v.occ[port*stubVCs+vc] }
func (v *stubView) Capacity(int, int) int      { return stubCap }
func (v *stubView) MinState(port, vc, size int) (int, bool, bool) {
	return v.Occupancy(port, vc), v.CanClaim(port, vc, size), v.CanStart(port, vc, size)
}
func (v *stubView) OccClaim(port, vc, size int) (int, bool) {
	return v.Occupancy(port, vc), v.CanClaim(port, vc, size)
}
func (v *stubView) GlobalCongested(int) bool { return false }
func (v *stubView) CurrentQueue() (int, int) { return 24, 32 }
func (v *stubView) HeadFullyArrived() bool   { return true }
func (v *stubView) Faulty() bool             { return false }
func (v *stubView) LinkDown(int) bool        { return false }
func (v *stubView) RouteDown(int, int) bool  { return false }
func (v *stubView) LocalDown(int, int) bool  { return false }
func (v *stubView) PortDead(int) bool        { return false }

// routeTimes measures the routing hot path at size h for the given
// mechanisms: BuildPlan, run once per waiting head, and RoutePlanned, the
// per-retry replay of a blocked head. Heads are seeded random packets at
// their source routers. Returns ns per call, averaged over mechanisms,
// each the median of rounds passes over every head.
func routeTimes(h int, mechs []dragonfly.Mechanism, seed uint64, heads, rounds int, rec *recorder) (buildNS, replayNS float64, err error) {
	p, err := topology.New(h)
	if err != nil {
		return 0, 0, fmt.Errorf("topology: %w", err)
	}
	r := rand.New(rand.NewPCG(seed, 0xc07e))
	view := newStubView(p, r)
	states := make([]core.PacketState, heads)
	for i := range states {
		src, dst := r.IntN(p.Nodes), r.IntN(p.Nodes)
		for p.RouterOfNode(dst) == p.RouterOfNode(src) {
			dst = r.IntN(p.Nodes) // a head at its destination router ejects unrouted
		}
		states[i].Init(p, src, dst)
		states[i].InjDecided = true // oblivious mechanisms would redraw per build otherwise
	}
	work := make([]core.PacketState, heads)
	plans := make([]core.Plan, heads)
	var builds, replays []float64
	for _, m := range mechs {
		spec, err := core.ParseSpec(m.String())
		if err != nil {
			return 0, 0, err
		}
		tab, err := core.NewTables(spec, core.Config{Topo: p})
		if err != nil {
			return 0, 0, fmt.Errorf("core tables: %w", err)
		}
		alg := tab.NewAlgorithm()
		pr := rng.New(seed, 1)
		var b, rp []float64
		for round := 0; round < rounds; round++ {
			copy(work, states)
			sp := rec.open("core.build_plan", m.String(), 0)
			t0 := time.Now()
			for i := range work {
				alg.BuildPlan(view, &work[i], int(work[i].SrcRouter), 8, pr, &plans[i])
			}
			b = append(b, float64(time.Since(t0).Nanoseconds())/float64(heads))
			sp.close()
			sp = rec.open("core.route_planned", m.String(), 0)
			t0 = time.Now()
			for i := range plans {
				_ = alg.RoutePlanned(view, &plans[i], 8, pr)
			}
			rp = append(rp, float64(time.Since(t0).Nanoseconds())/float64(heads))
			sp.close()
		}
		builds = append(builds, median(b))
		replays = append(replays, median(rp))
	}
	return mean(builds), mean(replays), nil
}
