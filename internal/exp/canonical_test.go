package exp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	dragonfly "repro"
)

// syntheticRun returns deterministic per-index results without
// simulating, so JSONL byte-comparison tests stay instant.
func syntheticRun(ctx context.Context, index int, p Point) (dragonfly.Result, error) {
	return dragonfly.Result{
		Mechanism:    p.Series,
		OfferedLoad:  p.X,
		AcceptedLoad: p.X / 2,
		Delivered:    int64(1000 + index),
	}, nil
}

// TestCanonicalJSONLByteStable pins the property the remote client
// relies on: the canonical stream is byte-identical across worker
// counts and across cold/warm store states.
func TestCanonicalJSONLByteStable(t *testing.T) {
	camp := tinyCampaign()
	runOnce := func(workers int, store *Store) []byte {
		t.Helper()
		var buf bytes.Buffer
		_, err := Run(context.Background(), camp, Options{
			Workers: workers,
			JSONL:   &buf,
			Cache:   store,
			Run:     syntheticRun,
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := runOnce(1, nil)
	wide := runOnce(4, nil)
	if !bytes.Equal(serial, wide) {
		t.Fatal("canonical JSONL differs across worker counts")
	}

	store := mustStore(t, t.TempDir(), 0)
	cold := runOnce(3, store)
	warm := runOnce(3, store)
	if !bytes.Equal(cold, serial) {
		t.Fatal("canonical JSONL differs with a cold store")
	}
	if !bytes.Equal(warm, serial) {
		t.Fatal("canonical JSONL differs with a warm store (Cached leaked in)")
	}

	// Lines are in campaign order with the volatile fields zeroed.
	sc := bufio.NewScanner(bytes.NewReader(serial))
	idx := 0
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", idx, err)
		}
		if rec.Index != idx {
			t.Fatalf("line %d carries index %d: canonical stream out of order", idx, rec.Index)
		}
		if rec.Seconds != 0 || rec.Cached {
			t.Fatalf("line %d: volatile fields survived: seconds=%v cached=%v", idx, rec.Seconds, rec.Cached)
		}
		idx++
	}
	if idx != len(camp.Points) {
		t.Fatalf("%d canonical lines, want %d", idx, len(camp.Points))
	}
}

// TestCanonicalJSONLPrefixOnCancel: a canceled campaign's canonical
// stream must be a well-formed prefix — contiguous indices from zero,
// every line complete.
func TestCanonicalJSONLPrefixOnCancel(t *testing.T) {
	camp := tinyCampaign()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	var buf bytes.Buffer
	_, err := Run(ctx, camp, Options{
		Workers: 2,
		JSONL:   &buf,
		Run: func(ctx context.Context, index int, p Point) (dragonfly.Result, error) {
			if ran.Add(1) == 2 {
				cancel()
			}
			return syntheticRun(ctx, index, p)
		},
	})
	if err == nil {
		t.Fatal("canceled campaign reported no error")
	}

	out := buf.String()
	if out != "" && !strings.HasSuffix(out, "\n") {
		t.Fatal("canonical stream ends in a torn line")
	}
	idx := 0
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not self-contained JSON: %v", idx, err)
		}
		if rec.Index != idx {
			t.Fatalf("line %d carries index %d: not a contiguous prefix", idx, rec.Index)
		}
		idx++
	}
	if idx >= len(camp.Points) {
		t.Fatal("cancellation emitted the full campaign")
	}
}
