package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	dragonfly "repro"
)

// checker counts checked operations and the ones that failed. Every
// failure is one failed operation of the result line; the first few are
// printed to standard error so a failing run explains itself.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
}

const maxFailureLines = 20

// check records one operation; ok=false counts it as failed.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if c.failed <= maxFailureLines {
			fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
		}
	}
	return ok
}

// point checks one simulated or served point: no error, no deadlock, and
// packet conservation over the whole run. A steady run's Result counters
// cover only its measurement window, so packets injected in warmup and
// delivered after it would break the identity there; the Timeline
// windows cover the whole run and are summed instead.
func (c *checker) point(name string, res dragonfly.Result, err error) bool {
	switch {
	case err != nil:
		return c.check(false, "%s: %v", name, err)
	case res.Deadlock:
		return c.check(false, "%s: deadlock", name)
	case res.Timeline == nil:
		return c.check(false, "%s: no timeline", name)
	}
	var gen, lost, supp, del, drops int64
	for _, w := range res.Timeline.Windows {
		gen += w.Generated
		lost += w.InjectionLost
		supp += w.Suppressed
		del += w.Delivered
		drops += w.FaultDrops
	}
	return c.check(del+drops <= gen-lost-supp,
		"%s: conservation broken: delivered %d + dropped %d > generated %d - lost %d - suppressed %d",
		name, del, drops, gen, lost, supp)
}

// runCycles is the number of cycles a point simulated, warmup included:
// Sim.Cycles() after the run, read from the end of its Timeline so that
// served Results, which come without their Sim, count the same cycles.
// Result.Cycles counts only the measurement window of a steady run.
func runCycles(res dragonfly.Result) int64 {
	if res.Timeline == nil || len(res.Timeline.Windows) == 0 {
		return 0
	}
	return res.Timeline.Windows[len(res.Timeline.Windows)-1].End
}

func (c *checker) counts() (attempted, failed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// digest is the hex SHA-256 of a Result's JSON encoding: equal digests
// mean bit-identical results.
func digest(res dragonfly.Result) string {
	buf, err := json.Marshal(res)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal result: %v", err)) // plain data; cannot fail
	}
	return digestBytes(buf)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
