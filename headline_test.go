package dragonfly_test

// Headline shape tests: the paper's qualitative results, asserted at
// reduced scale (h=3, shortened link latencies) with generous margins.

import (
	"testing"

	dragonfly "repro"
)

// headline runs one point with shared reduced-scale settings.
func headline(t *testing.T, m dragonfly.Mechanism, tr dragonfly.Traffic, load float64) dragonfly.Result {
	t.Helper()
	cfg := dragonfly.PaperVCT(3)
	cfg.Mechanism = m
	cfg.Traffic = tr
	cfg.Load = load
	cfg.LatLocal, cfg.LatGlobal = 4, 16
	cfg.Warmup, cfg.Measure = 1000, 2500
	cfg.Seed = 2024
	res, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Fatalf("%v deadlocked under %v", m, tr)
	}
	return res
}

// TestHeadlineMinimalCollapsesUnderADVG: a single global channel between
// group pairs bounds minimal routing near 1/(2h²) (paper Section II).
func TestHeadlineMinimalCollapsesUnderADVG(t *testing.T) {
	advg := dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}
	min := headline(t, dragonfly.Minimal, advg, 0.5)
	bound := 1.0 / 18 // 1/(2h²), h=3
	if min.AcceptedLoad > bound*1.6 {
		t.Fatalf("minimal accepted %.4f, should collapse near %.4f", min.AcceptedLoad, bound)
	}
	val := headline(t, dragonfly.Valiant, advg, 0.5)
	if val.AcceptedLoad < 3*min.AcceptedLoad {
		t.Fatalf("valiant %.4f does not dominate minimal %.4f under ADVG",
			val.AcceptedLoad, min.AcceptedLoad)
	}
}

// TestHeadlineInTransitBeatsObliviousUnderADVG: the in-transit adaptive
// trio reaches at least Piggybacking-level throughput under ADVG+1
// (paper Figure 5b).
func TestHeadlineInTransitBeatsObliviousUnderADVG(t *testing.T) {
	advg := dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}
	pb := headline(t, dragonfly.Piggybacking, advg, 0.8)
	for _, m := range []dragonfly.Mechanism{dragonfly.PAR62, dragonfly.RLM, dragonfly.OLM} {
		r := headline(t, m, advg, 0.8)
		if r.AcceptedLoad < pb.AcceptedLoad*0.95 {
			t.Errorf("%v accepted %.4f < PB %.4f under ADVG+1",
				m, r.AcceptedLoad, pb.AcceptedLoad)
		}
		if r.GlobalMisrouteRate < 0.5 {
			t.Errorf("%v global misroute rate %.2f; ADVG should trigger Valiant detours",
				m, r.GlobalMisrouteRate)
		}
	}
}

// TestHeadlineLocalMisroutingBreaksADVLCap: minimal routing is capped at
// 1/h under ADVL+1; the local-misrouting mechanisms must exceed the cap
// and Piggybacking escapes through Valiant paths (paper Figure 6a).
func TestHeadlineLocalMisroutingBreaksADVLCap(t *testing.T) {
	advl := dragonfly.Traffic{Kind: dragonfly.ADVL, Offset: 1}
	cap := 1.0 / 3 // 1/h, h=3
	min := headline(t, dragonfly.Minimal, advl, 1.0)
	if min.AcceptedLoad > cap*1.1 {
		t.Fatalf("minimal accepted %.4f above the 1/h cap %.4f", min.AcceptedLoad, cap)
	}
	for _, m := range []dragonfly.Mechanism{dragonfly.PAR62, dragonfly.RLM, dragonfly.OLM} {
		r := headline(t, m, advl, 1.0)
		if r.AcceptedLoad < cap*1.15 {
			t.Errorf("%v accepted %.4f, should break the 1/h cap %.4f",
				m, r.AcceptedLoad, cap)
		}
		if r.LocalMisrouteRate <= 0.1 {
			t.Errorf("%v local misroute rate %.3f; ADVL should trigger local detours",
				m, r.LocalMisrouteRate)
		}
		if r.GlobalMisrouteRate != 0 {
			t.Errorf("%v global-misrouted intra-group traffic (rate %.3f)",
				m, r.GlobalMisrouteRate)
		}
	}
	pbr := headline(t, dragonfly.Piggybacking, advl, 1.0)
	if pbr.AcceptedLoad < cap {
		t.Errorf("PB accepted %.4f; its Valiant escape should lift it to ~0.5", pbr.AcceptedLoad)
	}
	if pbr.GlobalMisrouteRate < 0.3 {
		t.Errorf("PB global misroute rate %.3f; local traffic should escape via Valiant",
			pbr.GlobalMisrouteRate)
	}
}

// TestHeadlineADVGPlusHNeedsLocalMisrouting: under ADVG+h the intermediate
// groups saturate ring-local links, capping Valiant and PB; mechanisms
// with local misrouting do better (paper Figure 5c).
func TestHeadlineADVGPlusHNeedsLocalMisrouting(t *testing.T) {
	advgh := dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 3} // +h, h=3
	val := headline(t, dragonfly.Valiant, advgh, 0.8)
	for _, m := range []dragonfly.Mechanism{dragonfly.PAR62, dragonfly.RLM} {
		r := headline(t, m, advgh, 0.8)
		if r.AcceptedLoad < val.AcceptedLoad*1.1 {
			t.Errorf("%v accepted %.4f, want clearly above Valiant's %.4f under ADVG+h",
				m, r.AcceptedLoad, val.AcceptedLoad)
		}
		if r.LocalMisrouteRate <= 0.05 {
			t.Errorf("%v local misroute rate %.3f under ADVG+h", m, r.LocalMisrouteRate)
		}
	}
	// OLM's intermediate-group misrouting must engage as well.
	olm := headline(t, dragonfly.OLM, advgh, 0.8)
	if olm.AcceptedLoad < val.AcceptedLoad {
		t.Errorf("OLM accepted %.4f below Valiant %.4f under ADVG+h",
			olm.AcceptedLoad, val.AcceptedLoad)
	}
}

// TestHeadlineUniformAdaptiveMatchesMinimal: under UN, on-the-fly adaptive
// routing reaches at least minimal's throughput (paper Figure 5a) and
// Valiant pays roughly double latency.
func TestHeadlineUniformAdaptiveMatchesMinimal(t *testing.T) {
	un := dragonfly.Traffic{Kind: dragonfly.UN}
	min := headline(t, dragonfly.Minimal, un, 0.42)
	for _, m := range []dragonfly.Mechanism{dragonfly.PAR62, dragonfly.RLM, dragonfly.OLM} {
		r := headline(t, m, un, 0.42)
		if r.AcceptedLoad < min.AcceptedLoad*0.97 {
			t.Errorf("%v accepted %.4f well below minimal %.4f under UN",
				m, r.AcceptedLoad, min.AcceptedLoad)
		}
		if r.GlobalMisrouteRate > 0.3 {
			t.Errorf("%v Valiant rate %.2f under UN; should be rare", m, r.GlobalMisrouteRate)
		}
	}
	val := headline(t, dragonfly.Valiant, un, 0.42)
	if val.AvgNetworkLatency < min.AvgNetworkLatency*1.3 {
		t.Errorf("valiant latency %.1f not clearly above minimal %.1f under UN",
			val.AvgNetworkLatency, min.AvgNetworkLatency)
	}
}

// TestHeadlineThresholdTradeoff: higher thresholds misroute more — better
// under adversarial traffic, worse under uniform (paper Figures 10, 11).
func TestHeadlineThresholdTradeoff(t *testing.T) {
	un := dragonfly.Traffic{Kind: dragonfly.UN}
	runTh := func(th float64, tr dragonfly.Traffic, load float64) dragonfly.Result {
		cfg := dragonfly.PaperVCT(3)
		cfg.Mechanism = dragonfly.RLM
		cfg.Threshold = th
		cfg.Traffic = tr
		cfg.Load = load
		cfg.LatLocal, cfg.LatGlobal = 4, 16
		cfg.Warmup, cfg.Measure = 1000, 2500
		cfg.Seed = 7
		res, err := dragonfly.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lo := runTh(0.15, un, 0.5)
	hi := runTh(0.90, un, 0.5)
	if hi.LocalMisrouteRate <= lo.LocalMisrouteRate {
		t.Errorf("threshold 90%% misroutes (%.3f) no more than 15%% (%.3f) under UN",
			hi.LocalMisrouteRate, lo.LocalMisrouteRate)
	}
	advg := dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}
	loA := runTh(0.15, advg, 0.6)
	hiA := runTh(0.90, advg, 0.6)
	if hiA.GlobalMisrouteRate <= loA.GlobalMisrouteRate {
		t.Errorf("threshold 90%% global-misroutes (%.3f) no more than 15%% (%.3f) under ADVG",
			hiA.GlobalMisrouteRate, loA.GlobalMisrouteRate)
	}
}

// TestHeadlineBurstAdaptiveBeatsPB: the burst-consumption experiment
// (paper Figures 6b): in-transit adaptive mechanisms drain a mixed
// adversarial burst significantly faster than Piggybacking.
func TestHeadlineBurstAdaptiveBeatsPB(t *testing.T) {
	burst := func(m dragonfly.Mechanism) int64 {
		cfg := dragonfly.PaperVCT(3)
		cfg.Mechanism = m
		cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.MIX, GlobalPercent: 30}
		cfg.BurstPackets = 40
		cfg.LatLocal, cfg.LatGlobal = 4, 16
		cfg.Seed = 5
		res, err := dragonfly.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlock {
			t.Fatalf("%v deadlocked draining the burst", m)
		}
		return res.ConsumptionCycles
	}
	pb := burst(dragonfly.Piggybacking)
	for _, m := range []dragonfly.Mechanism{dragonfly.OLM, dragonfly.RLM} {
		if got := burst(m); got > pb*85/100 {
			t.Errorf("%v burst %d cycles, want well below PB's %d", m, got, pb)
		}
	}
}

// TestHeadlineWormholeRLM: under WH with large packets, RLM stays
// deadlock-free and outperforms PB under adversarial traffic
// (paper Figure 8).
func TestHeadlineWormholeRLM(t *testing.T) {
	run := func(m dragonfly.Mechanism) dragonfly.Result {
		cfg := dragonfly.PaperWH(3)
		cfg.Mechanism = m
		cfg.PacketPhits = 40
		cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}
		cfg.Load = 0.6
		cfg.LatLocal, cfg.LatGlobal = 4, 16
		cfg.Warmup, cfg.Measure = 1500, 3000
		cfg.Seed = 3
		res, err := dragonfly.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlock {
			t.Fatalf("%v deadlocked under WH", m)
		}
		return res
	}
	pb := run(dragonfly.Piggybacking)
	rlm := run(dragonfly.RLM)
	par := run(dragonfly.PAR62)
	if rlm.AcceptedLoad < pb.AcceptedLoad {
		t.Errorf("RLM/WH accepted %.4f below PB %.4f", rlm.AcceptedLoad, pb.AcceptedLoad)
	}
	if par.AcceptedLoad < pb.AcceptedLoad {
		t.Errorf("PAR-6/2/WH accepted %.4f below PB %.4f", par.AcceptedLoad, pb.AcceptedLoad)
	}
}

// TestHeadlineDeadlockFreedomStress drives every legal mechanism/flow
// combination at saturation with tiny buffers for an extended run; the
// watchdog must stay silent.
func TestHeadlineDeadlockFreedomStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	type combo struct {
		m    dragonfly.Mechanism
		flow dragonfly.FlowControl
		pkt  int
	}
	combos := []combo{
		{dragonfly.PAR62, dragonfly.VCT, 8},
		{dragonfly.RLM, dragonfly.VCT, 8},
		{dragonfly.OLM, dragonfly.VCT, 8},
		{dragonfly.OFAR, dragonfly.VCT, 8},
		{dragonfly.PAR62, dragonfly.WH, 40},
		{dragonfly.RLM, dragonfly.WH, 40},
		{dragonfly.Valiant, dragonfly.WH, 40},
		{dragonfly.Piggybacking, dragonfly.VCT, 8},
	}
	for _, c := range combos {
		cfg := dragonfly.PaperVCT(2)
		cfg.Mechanism = c.m
		cfg.FlowControl = c.flow
		cfg.PacketPhits = c.pkt
		cfg.BufLocal, cfg.BufGlobal = 16, 48
		if c.flow == dragonfly.VCT {
			cfg.BufLocal, cfg.BufGlobal = 16, 48
		}
		cfg.LatLocal, cfg.LatGlobal = 2, 8
		cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 2}
		cfg.Load = 1.0
		cfg.Warmup, cfg.Measure = 0, 12000
		cfg.Watchdog = 4000
		cfg.Seed = 99
		res, err := dragonfly.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlock {
			t.Errorf("%v/%v deadlocked at saturation", c.m, c.flow)
		}
		if res.Delivered == 0 {
			t.Errorf("%v/%v delivered nothing", c.m, c.flow)
		}
	}
}
