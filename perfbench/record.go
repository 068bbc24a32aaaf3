package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runRecord describes where and on what a run measured: toolchain,
// processor, code, inputs, and the exact counts that must repeat bit for
// bit for a seed.
func runRecord(w *bench) map[string]any {
	attempted, failed := w.chk.counts()
	rec := map[string]any{
		"workload":     w.workload,
		"seed":         w.seed,
		"seconds":      w.seconds,
		"traced":       w.rec != nil,
		"go_version":   runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu_model":    cpuModel(),
		"l2_cache":     readTrim("/sys/devices/system/cpu/cpu0/cache/index2/size"),
		"commit":       commit(),
		"exact_counts": w.counts,
		"attempted":    attempted,
		"failed":       failed,
	}
	for k, v := range w.record {
		rec[k] = v
	}
	return rec
}

// writeReport stores the run record and every metric of the run.
func writeReport(path string, record map[string]any, w *bench) error {
	buf, err := json.MarshalIndent(map[string]any{
		"run_record": record,
		"end_to_end": w.e2e,
		"per_layer":  w.layer,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// commit reads the checked-out commit from .git without running git; a
// checkout without .git reports "unknown".
func commit() string {
	head := readTrim(".git/HEAD")
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if id := readTrim(filepath.Join(".git", ref)); id != "unknown" {
		return id
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
