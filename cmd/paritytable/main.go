// Command paritytable prints the parity-sign restriction of Restricted
// Local Misrouting (Table I of the paper), verifies its structural
// properties (deadlock freedom via acyclicity, the h-1 route guarantee)
// and contrasts it with the rejected sign-only restriction.
//
// With -sim, it backs the structural claims empirically: a small campaign
// through internal/exp runs RLM against the sign-only ablation
// under the ADVL+1 pattern — the regime where route balance matters most
// (paper Section III-B) — and reports throughput, misrouting and the
// deadlock watchdog's verdict for each.
//
// Usage:
//
//	paritytable [-h N] [-signonly] [-sim]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	dragonfly "repro"
	"repro/internal/core"
	"repro/internal/exp"
)

func main() {
	h := flag.Int("h", 4, "dragonfly parameter h (group size 2h)")
	signOnly := flag.Bool("signonly", false, "also analyze the sign-only ablation")
	sim := flag.Bool("sim", false, "run the empirical RLM vs sign-only campaign")
	flag.Parse()
	if *h < 1 {
		fmt.Fprintln(os.Stderr, "paritytable: h must be >= 1")
		os.Exit(2)
	}

	tab := core.NewParityTable()
	types := []core.LinkType{core.OddNeg, core.EvenPos, core.OddPos, core.EvenNeg}

	fmt.Println("Table I — parity-sign 2-hop combinations (first hop, second hop):")
	fmt.Printf("%-8s", "")
	for _, second := range types {
		fmt.Printf("%-8s", second)
	}
	fmt.Println()
	for _, first := range types {
		fmt.Printf("%-8s", first)
		for _, second := range types {
			mark := "NO"
			if tab.Allowed(first, second) {
				mark = "YES"
			}
			fmt.Printf("%-8s", mark)
		}
		fmt.Println()
	}

	n := 2 * *h
	fmt.Printf("\nSupernode size 2h = %d routers.\n", n)
	report(tab, "parity-sign", n, *h)
	if *signOnly {
		report(core.NewSignOnlyTable(), "sign-only (ablation)", n, *h)
	}
	if *sim {
		if err := simContrast(*h); err != nil {
			fmt.Fprintln(os.Stderr, "paritytable:", err)
			os.Exit(1)
		}
	}
}

// simContrast runs the empirical campaign: both restrictions under ADVL+1
// at full load, all points concurrently on the orchestrator's pool.
func simContrast(h int) error {
	if h < 2 {
		return fmt.Errorf("-sim needs h >= 2 (a well-formed dragonfly)")
	}
	base := dragonfly.PaperVCT(h)
	base.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVL, Offset: 1}
	base.Load = 1.0
	base.LatLocal, base.LatGlobal = 4, 16 // reduced latencies: quick check, same engine work profile
	base.Warmup, base.Measure = 1000, 3000
	base.Seed = 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	camp := exp.NewMatrix(base).
		Mechanisms(dragonfly.RLM, dragonfly.RLMSignOnly).
		Campaign("parity-contrast")
	outs, err := exp.Run(ctx, camp, exp.Options{})
	if err != nil {
		return err
	}
	if err := exp.PointErrors(outs); err != nil {
		return err
	}
	fmt.Printf("\nEmpirical contrast under ADVL+1 at load 1.0 (h=%d, VCT):\n", h)
	fmt.Printf("  %-14s %-10s %-14s %s\n", "restriction", "accepted", "local mis/pkt", "deadlock")
	for _, o := range outs {
		r := o.Result
		fmt.Printf("  %-14s %-10.4f %-14.3f %v\n",
			r.Mechanism, r.AcceptedLoad, r.LocalMisrouteRate, r.Deadlock)
	}
	return nil
}

// intermediateCounter is the common surface of both restrictions.
type intermediateCounter interface {
	Intermediates(dst []int, i, j, routers int) []int
}

func report(tab intermediateCounter, name string, n, h int) {
	minRoutes, maxRoutes := n, 0
	var worst [2]int
	zeroPairs := 0
	var buf []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			buf = tab.Intermediates(buf[:0], i, j, n)
			if len(buf) < minRoutes {
				minRoutes = len(buf)
				worst = [2]int{i, j}
			}
			if len(buf) > maxRoutes {
				maxRoutes = len(buf)
			}
			if len(buf) == 0 {
				zeroPairs++
			}
		}
	}
	fmt.Printf("\n%s restriction:\n", name)
	fmt.Printf("  2-hop routes per ordered pair: min %d (pair %d->%d), max %d\n",
		minRoutes, worst[0], worst[1], maxRoutes)
	fmt.Printf("  pairs with no non-minimal route: %d\n", zeroPairs)
	if minRoutes >= h-1 {
		fmt.Printf("  guarantee met: every pair has >= h-1 = %d routes\n", h-1)
	} else {
		fmt.Printf("  UNBALANCED: below the h-1 = %d guarantee (the paper rejects such schemes)\n", h-1)
	}
}
