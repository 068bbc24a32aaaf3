package main

import (
	"context"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"reflect"
	"slices"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json with the tiny references")

// tinySizes shrinks every workload so the self-test runs in seconds.
func tinySizes() sizes {
	return sizes{
		fabricH: 2, fabricWarmup: 50, fabricMeasure: 150, fabricPasses: 2,
		sweepWarmup: 50, sweepMeasure: 100, variants: 1, warmRequests: 6,
		coldRounds: 2, warmRounds: 2, setupReps: 2, routeHeads: 64, routeRounds: 3,
	}
}

const tinySeed, tinySeconds = 7, 1

// tinyGolden returns the golden references of the tiny runs, computed by
// an earlier process and kept in testdata/golden.json; with -update it
// recomputes and rewrites them first.
func tinyGolden(t *testing.T) map[string]reference {
	t.Helper()
	const path = "testdata/golden.json"
	if *update {
		refs, err := computeReferences(context.Background(), tinySeed, tinySizes())
		if err != nil {
			t.Fatal(err)
		}
		g := map[string]reference{}
		for wl, ref := range refs {
			g[goldenKey(wl, tinySeed, tinySeconds)] = ref
		}
		buf, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := parseGolden(buf)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func runTiny(t *testing.T, workload string, traced bool, golden map[string]reference) *bench {
	t.Helper()
	w := newBench(workload, tinySeed, tinySeconds, tinySizes(), t.TempDir(), traced, golden)
	if err := w.run(context.Background()); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return w
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// size: no operation may fail, the reference must match the golden one
// an earlier process stored, every metric must be reported, the
// end-to-end metrics must be nonzero, and a second run of the same seed
// must repeat the exact counts.
func TestWorkloadsTiny(t *testing.T) {
	golden := tinyGolden(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := runTiny(t, name, false, golden)
			line := w.result()
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d", line.Correct, line.Failed, line.Attempted)
			}
			if key := goldenKey(name, tinySeed, tinySeconds); w.record["golden"] != key {
				t.Errorf("golden reference %s not checked: %v", key, w.record["golden"])
			}
			for _, m := range endToEnd {
				if v, ok := line.Metrics[m.name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end %s = %v (present %v), want > 0", m.name, v.Value, ok)
				}
			}

			again := runTiny(t, name, true, golden)
			line = again.result()
			if line.Failed != 0 {
				t.Fatalf("traced rerun: %d of %d operations failed", line.Failed, line.Attempted)
			}
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(line.Metrics), len(perLayer))
			}
			if !reflect.DeepEqual(w.counts, again.counts) {
				t.Errorf("exact counts differ across runs of one seed:\n%v\n%v", w.counts, again.counts)
			}
		})
	}
}

// TestReferencesAgree checks that the cheap reference computation that
// writes the golden files agrees with the reference each workload
// reaches through its own path (service, store or fabric pass).
func TestReferencesAgree(t *testing.T) {
	refs, err := computeReferences(context.Background(), tinySeed, tinySizes())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		if w := runTiny(t, name, false, nil); w.ref != refs[name] {
			t.Errorf("%s: run reference %+v, computed %+v", name, w.ref, refs[name])
		}
	}
}

// TestTamperedDigestFails proves the golden check bites: a wrong golden
// digest must be counted as a failed operation by every workload.
func TestTamperedDigestFails(t *testing.T) {
	golden := tinyGolden(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			key := goldenKey(name, tinySeed, tinySeconds)
			bad := maps.Clone(golden)
			ref := bad[key]
			ref.Digest = tamper(ref.Digest)
			bad[key] = ref
			if line := runTiny(t, name, false, bad).result(); line.Failed == 0 || line.Correct {
				t.Fatalf("tampered digest went unnoticed: failed=%d correct=%v", line.Failed, line.Correct)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables here in
// step: same workloads, same metric names and units, in order.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	have := workloadNames()
	slices.Sort(names)
	if !slices.Equal(names, have) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, have)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// tamper flips the first hex digit of a digest.
func tamper(d string) string {
	if d == "" || d[0] == '0' {
		return "1" + d[1:]
	}
	return "0" + d[1:]
}
