package exp

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	dragonfly "repro"
	"repro/internal/exp/queue"
)

// Options configure a campaign run. The zero value runs every point with
// dragonfly.RunContext on GOMAXPROCS local pullers, no store, no output.
type Options struct {
	// Workers is the number of local pullers, hence of concurrently
	// executing points (default GOMAXPROCS). This is across-point
	// parallelism; it multiplies with any Config.Workers
	// intra-simulation parallelism, so campaigns over small networks
	// should leave Config.Workers at 1.
	Workers int

	// SeedBase, when nonzero, overwrites every point's Config.Seed with
	// a value mixed from SeedBase and the point's campaign index. Seeds
	// are assigned up front, in campaign order, so they do not depend on
	// the number of pullers or on which one picks a point up. Zero keeps
	// the seeds the builders put in the configs.
	SeedBase uint64

	// Progress, when non-nil, receives one event per finished point.
	// Events are delivered serially (never concurrently).
	Progress func(Progress)

	// JSONL, when non-nil, receives the campaign's canonical JSON lines
	// (see Record): one per point, in campaign order, each written once
	// every earlier point has finished, with the volatile fields —
	// Seconds and Cached — zeroed. Because the engine is deterministic,
	// the stream is byte-identical for any worker count, any store
	// state, and for local versus remote execution of the same
	// campaign. A canceled campaign's stream is a well-formed prefix.
	JSONL io.Writer

	// CanonicalJSONL is ignored: JSONL is always canonical.
	//
	// Deprecated: kept only for the benchmark module, which sets it.
	CanonicalJSONL bool

	// Cache, when non-nil, is the result store: identical points share
	// one execution, each distinct point is looked up once before it
	// runs, and every fresh result is Put before it is delivered. A hit
	// skips the simulation entirely.
	Cache *Store

	// Run overrides how a point is executed (benchmark harnesses time
	// the engine themselves). Default: dragonfly.RunContext(ctx, cfg).
	// The index is the point's campaign index (with a store, that of the
	// first of the identical points sharing the run).
	Run func(ctx context.Context, index int, p Point) (dragonfly.Result, error)
}

// Progress is one structured progress event.
type Progress struct {
	Done    int // points finished so far, this one included
	Total   int // points in the campaign
	Outcome Outcome
}

// PointSeed derives the deterministic seed of point index under base,
// using a splitmix64 round so neighboring indices get uncorrelated seeds.
func PointSeed(base uint64, index int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run executes every point of the campaign and returns the outcomes in
// campaign order. It is the daemon's execution path in-process: the
// points go, in campaign order, onto a private lease queue (see
// Enqueue) that Options.Workers local pullers drain (see Pull), and the
// outcomes are collected as they arrive, feeding Progress and JSONL
// serially.
//
// Per-point simulation failures are recorded in Outcome.Err (see
// PointErrors); the returned error is reserved for campaign-level
// failures — ctx cancellation, JSONL write errors and store errors (a
// point whose simulation succeeded but whose result could not be stored
// still reports success, with its result; the first store error is
// returned once). On cancellation the in-flight simulations abort at
// their next cycle check, every unstarted point carries ctx's error,
// and nothing more is emitted.
func Run(ctx context.Context, camp Campaign, opt Options) ([]Outcome, error) {
	begin := time.Now()
	outs := make([]Outcome, len(camp.Points))
	for i := range outs {
		outs[i].Index = i
		outs[i].Point = camp.Points[i]
		if opt.SeedBase != 0 {
			outs[i].Point.Config.Seed = PointSeed(opt.SeedBase, i)
		}
	}
	runFn := opt.Run
	if runFn == nil {
		runFn = func(ctx context.Context, _ int, p Point) (dragonfly.Result, error) {
			return dragonfly.RunContext(ctx, p.Config)
		}
	}
	keys := Keys(opt.Cache, outs)
	first := make(map[string]int, len(keys)) // key -> index of the point that runs it
	for i := len(keys) - 1; i >= 0; i-- {
		first[keys[i]] = i
	}

	q := queue.New(queue.Config{})
	defer q.Close()
	// keep runs before its outcome is delivered, so putErr is set before
	// the collector below has received every outcome.
	var putErr error
	var putOnce sync.Once
	keep := Persist(opt.Cache, func(_ queue.Task, err error) {
		putOnce.Do(func() { putErr = err })
	})
	run := func(ctx context.Context, t queue.Task) (dragonfly.Result, error) {
		i := first[t.Key]
		return runFn(ctx, i, outs[i].Point)
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pullCtx, stopPullers := context.WithCancel(ctx)
	var pullers sync.WaitGroup
	for w := min(workers, len(outs)); w > 0; w-- {
		pullers.Add(1)
		go func() {
			defer pullers.Done()
			Pull(pullCtx, q, run, keep)
		}()
	}
	defer pullers.Wait()
	defer stopPullers()

	// One delivery per point, so the queue never blocks sending.
	done := make(chan queue.Delivery, len(outs))
	how := Enqueue(q, opt.Cache, outs, keys, done)

	var (
		jsonlErr error
		emitted  int
		next     int    // first index not yet written to JSONL
		finished []bool // per index, for the JSONL prefix
		canceled = ctx.Done()
	)
	if opt.JSONL != nil {
		finished = make([]bool, len(outs))
	}
	for n := 0; n < len(outs); {
		select {
		case <-canceled:
			// Fail every point no puller has claimed yet; the in-flight
			// ones still deliver, with ctx's error once they notice it.
			q.Drain(ctx.Err())
			canceled = nil
		case d := <-done:
			n++
			o := &outs[d.Tag]
			o.Result, o.Err, o.Seconds = d.Result, d.Err, time.Since(begin).Seconds()
			o.Cached = how[d.Tag] == Stored || how[d.Tag] == Joined && d.Err == nil
			if ctx.Err() != nil {
				continue // the campaign is over: record, emit nothing
			}
			emitted++
			if finished != nil && jsonlErr == nil {
				finished[d.Tag] = true
				for next < len(outs) && finished[next] && jsonlErr == nil {
					jsonlErr = WriteCanonicalRecord(opt.JSONL, &outs[next])
					next++
				}
			}
			if opt.Progress != nil {
				opt.Progress(Progress{Done: emitted, Total: len(outs), Outcome: *o})
			}
		}
	}
	return outs, errors.Join(ctx.Err(), jsonlErr, putErr)
}

// Source is how Enqueue settled a point.
type Source int

const (
	Released Source = iota // left to the pullers
	Joined                 // attached to a live identical point's task
	Stored                 // resolved from the store, with no lease
)

// Keys returns the queue key of every point. With a store it is the
// point's content address, so identical points share one task, as on
// the daemon. Without one it is the point's index, so every point runs:
// Config.Canonical clears Workers, so points that differ only in it
// would otherwise share. Index keys are unique within one campaign
// only, so only a queue private to the campaign may carry them.
func Keys(store *Store, outs []Outcome) []string {
	keys := make([]string, len(outs))
	for i := range outs {
		if store != nil {
			keys[i] = store.Key(outs[i].Point.Config)
		} else {
			keys[i] = strconv.Itoa(outs[i].Index)
		}
	}
	return keys
}

// Enqueue puts a campaign's points on q in campaign order, point i under
// keys[i] with tag i, each delivering its outcome to done, which must
// have room for len(outs) deliveries. A point whose key is live joins
// that task. Otherwise one store lookup (none without a store) either
// resolves the new task or releases it to the pullers. A point q refuses
// (it is draining) has the refusal delivered at once. It returns how
// each point was settled.
func Enqueue(q *queue.Queue, store *Store, outs []Outcome, keys []string, done chan<- queue.Delivery) []Source {
	how := make([]Source, len(outs))
	for i := range outs {
		cfg := outs[i].Point.Config
		tk, err := q.Enqueue(keys[i], cfg, i, done)
		switch {
		case err != nil:
			done <- queue.Delivery{Tag: i, Outcome: queue.Outcome{Err: err}}
		case tk.Joined:
			how[i] = Joined
		default:
			if store != nil {
				if res, ok := store.Get(keys[i]); ok {
					how[i] = Stored
					q.Resolve(tk, queue.Outcome{Result: res})
					continue
				}
			}
			q.Release(tk)
		}
	}
	return how
}

// Pull is one local puller: it claims points from q one at a time, runs
// each with run and completes it through keep, until q drains or ctx
// ends. A point claimed after ctx ended completes with ctx's error,
// unrun. Local leases never expire, so Pull sends no heartbeats.
func Pull(ctx context.Context, q *queue.Queue, run func(context.Context, queue.Task) (dragonfly.Result, error), keep func(queue.Task, queue.Outcome)) {
	for ctx.Err() == nil {
		l, err := q.WaitClaim(ctx, "local", 1, time.Hour, true)
		if err != nil {
			return // draining, or ctx ended
		}
		if l == nil {
			continue
		}
		for _, t := range l.Tasks {
			out := queue.Outcome{Err: ctx.Err()}
			if out.Err == nil {
				out.Result, out.Err = run(ctx, t)
			}
			q.Complete(l.ID, t.ID, out, keep) //nolint:errcheck // local leases cannot expire
		}
	}
}

// Persist returns the queue completion hook that Puts every successful
// result into store before the queue delivers it, so the result is
// stored before its key stops being live. A failed Put never fails the
// point — the simulation succeeded and its result stands; onErr hears
// of it instead. A nil store keeps nothing.
func Persist(store *Store, onErr func(queue.Task, error)) func(queue.Task, queue.Outcome) {
	if store == nil {
		return nil
	}
	return func(t queue.Task, out queue.Outcome) {
		if out.Err != nil {
			return
		}
		if err := store.Put(t.Key, t.Config, out.Result); err != nil {
			onErr(t, err)
		}
	}
}
