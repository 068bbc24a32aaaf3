package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	dragonfly "repro"
	"repro/internal/exp"
)

// reference is what one pass over a workload's points produces: the
// digest of its results and their exact engine counts. Every run computes
// its reference untimed before it measures.
type reference struct {
	Digest    string `json:"digest"`
	Phits     int64  `json:"phits"`
	Cycles    int64  `json:"cycles"`
	Delivered int64  `json:"delivered"`
}

func referenceOf(digest string, results []dragonfly.Result) reference {
	ref := reference{Digest: digest}
	for _, r := range results {
		ref.Phits += r.PhitsMoved
		ref.Cycles += runCycles(r)
		ref.Delivered += r.Delivered
	}
	return ref
}

// goldenJSON maps goldenKey to the reference an earlier process computed.
// A run whose key is listed must reproduce it, so a change that alters
// simulation results fails the benchmark rather than only disagreeing
// with itself within one process. Regenerate it with --write-golden after
// a deliberate change to the simulator's results.
//
//go:embed golden.json
var goldenJSON []byte

func goldenKey(workload string, seed uint64, seconds int) string {
	return fmt.Sprintf("%s/seed=%d/seconds=%d", workload, seed, seconds)
}

func parseGolden(b []byte) (map[string]reference, error) {
	g := map[string]reference{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden references: %w", err)
	}
	return g, nil
}

// checkGolden compares the run's reference with the golden one, if its
// key is listed; a mismatch is one failed operation.
func (w *bench) checkGolden() {
	key := goldenKey(w.workload, w.seed, w.seconds)
	w.record["reference"] = w.ref
	want, ok := w.golden[key]
	if !ok {
		w.record["golden"] = "absent"
		return
	}
	w.record["golden"] = key
	w.chk.check(w.ref == want, "%s: reference %+v differs from the golden %+v", key, w.ref, want)
}

// computeReferences computes every workload's reference the cheap way:
// one fabric pass, and one local exp.Run of the sweep slices on two
// slots. Runs reach theirs through the service (sweep-cold) or the store
// (sweep-warm); the self-test checks that both ways agree.
func computeReferences(ctx context.Context, seed uint64, sz sizes) (map[string]reference, error) {
	chk := &checker{}
	cfgs := fabricConfigs(seed, sz, 2)
	pass, err := runFabricPass(ctx, cfgs, nil, "reference")
	if err != nil {
		return nil, err
	}
	for i, pt := range pass.points {
		chk.point(cfgs[i].name, pt.res, pt.err)
	}
	pool, err := genSlices(seed, sz.sweepWarmup, sz.sweepMeasure, sz.variants)
	if err != nil {
		return nil, err
	}
	cold, warm, _, err := sweepReference(ctx, chk, seed, pool, nil)
	if err != nil {
		return nil, err
	}
	if _, failed := chk.counts(); failed > 0 {
		return nil, fmt.Errorf("seed %d: %d reference points failed their checks", seed, failed)
	}
	return map[string]reference{"fabric-h6": pass.reference(), "sweep-cold": cold, "sweep-warm": warm}, nil
}

// sweepReference runs the sweep slices through exp.Run on two slots,
// filling cache when it is not nil, and checks every point with chk. It returns the reference of the
// sweep-cold campaign (its canonical JSONL), that of the sweep-warm
// slices (the digest of their per-slice digests) and the per-slice
// digests of the canonical JSONL each slice yields when submitted alone.
func sweepReference(ctx context.Context, chk *checker, seed uint64, pool []slice, cache *exp.Cache) (cold, warm reference, sliceDigests []string, err error) {
	camp := campaignOf(coldName(seed), pool)
	var buf strings.Builder
	outs, err := exp.Run(ctx, camp, exp.Options{Workers: 2, Cache: cache, CanonicalJSONL: true, JSONL: &buf})
	if err != nil {
		return cold, warm, nil, fmt.Errorf("sweep reference: %w", err)
	}
	results := make([]dragonfly.Result, len(outs))
	i := 0
	for _, s := range pool {
		var sb strings.Builder
		for j := range s.points {
			o := outs[i]
			chk.point(fmt.Sprintf("reference point %d", i), o.Result, o.Err)
			results[i] = o.Result
			o.Index = j
			if err := exp.WriteCanonicalRecord(&sb, &o); err != nil {
				return cold, warm, nil, err
			}
			i++
		}
		sliceDigests = append(sliceDigests, digestBytes([]byte(sb.String())))
	}
	cold = referenceOf(digestBytes([]byte(buf.String())), results)
	warm = referenceOf(digestBytes([]byte(strings.Join(sliceDigests, "\n"))), results)
	return cold, warm, sliceDigests, nil
}

// goldenSeeds is how many seeds, from 0, the golden file covers.
const goldenSeeds = 64

// writeGolden computes the reference of every workload for seeds
// 0..goldenSeeds-1 at the given --seconds and merges them into path.
func writeGolden(ctx context.Context, path string, seconds int) error {
	g := map[string]reference{}
	if b, err := os.ReadFile(path); err == nil {
		if g, err = parseGolden(b); err != nil {
			return err
		}
	}
	for seed := uint64(0); seed < goldenSeeds; seed++ {
		refs, err := computeReferences(ctx, seed, sizesFor(seconds))
		if err != nil {
			return err
		}
		for wl, ref := range refs {
			g[goldenKey(wl, seed, seconds)] = ref
		}
		fmt.Fprintf(os.Stderr, "perfbench: golden references for seed %d\n", seed)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
