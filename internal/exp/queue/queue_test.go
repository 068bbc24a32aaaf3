package queue

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	dragonfly "repro"
)

// fastConfig is a queue tuned so that expiry and backoff are observable
// within milliseconds.
func fastConfig() Config {
	return Config{
		Lease:         80 * time.Millisecond,
		Tick:          10 * time.Millisecond,
		PoisonWorkers: 2,
		MaxAttempts:   4,
		BackoffBase:   5 * time.Millisecond,
		BackoffMax:    20 * time.Millisecond,
	}
}

func newTestQueue(t *testing.T, cfg Config) *Queue {
	t.Helper()
	q := New(cfg)
	t.Cleanup(q.Close)
	return q
}

func cfgN(n int) dragonfly.Config {
	c := dragonfly.PaperVCT(2)
	c.Seed = uint64(n + 1)
	return c
}

// tkt is a test ticket with its own delivery channel.
type tkt struct {
	Ticket
	done chan Delivery
}

// enqueue enqueues one point and, unless it joined a live task,
// releases it for claiming.
func enqueue(t *testing.T, q *Queue, key string, cfg dragonfly.Config) *tkt {
	t.Helper()
	done := make(chan Delivery, 1)
	tk, err := q.Enqueue(key, cfg, 0, done)
	if err != nil {
		t.Fatalf("enqueue %s: %v", key, err)
	}
	if !tk.Joined {
		q.Release(tk)
	}
	return &tkt{tk, done}
}

func enqueueN(t *testing.T, q *Queue, n int) []*tkt {
	t.Helper()
	tks := make([]*tkt, n)
	for i := range tks {
		tks[i] = enqueue(t, q, fmt.Sprintf("key%d", i), cfgN(i))
	}
	return tks
}

// waitOutcome receives a ticket's outcome with a test deadline.
func waitOutcome(t *testing.T, tk *tkt) Outcome {
	t.Helper()
	select {
	case d := <-tk.done:
		return d.Outcome
	case <-time.After(5 * time.Second):
		t.Fatalf("ticket %s: no outcome within 5s", tk.ID)
		return Outcome{}
	}
}

// claimAll drains the ready queue into one worker's lease, waiting out
// backoff delays.
func claimAll(t *testing.T, q *Queue, worker string, max int) *Lease {
	t.Helper()
	l, err := q.WaitClaim(context.Background(), worker, max, 5*time.Second, false)
	if err != nil {
		t.Fatalf("claim %s: %v", worker, err)
	}
	if l == nil {
		t.Fatalf("claim %s: no work within 5s", worker)
	}
	return l
}

func TestClaimFIFOAndBatching(t *testing.T) {
	q := newTestQueue(t, fastConfig())
	tks := enqueueN(t, q, 5)

	l1, err := q.Claim("w1", 3, false)
	if err != nil || l1 == nil {
		t.Fatalf("claim: %v %v", l1, err)
	}
	if len(l1.Tasks) != 3 {
		t.Fatalf("claimed %d tasks, want 3", len(l1.Tasks))
	}
	for i, task := range l1.Tasks {
		if task.ID != tks[i].ID {
			t.Fatalf("task %d: got %s, want FIFO order %s", i, task.ID, tks[i].ID)
		}
		if task.Attempt != 1 {
			t.Fatalf("task %d: attempt %d, want 1", i, task.Attempt)
		}
	}
	l2, err := q.Claim("w2", 10, false)
	if err != nil || l2 == nil || len(l2.Tasks) != 2 {
		t.Fatalf("second claim: %+v %v", l2, err)
	}
	if l3, _ := q.Claim("w3", 1, false); l3 != nil {
		t.Fatalf("empty queue handed out %+v", l3)
	}
	if d := time.Until(l1.Deadline); d <= 0 || d > fastConfig().Lease {
		t.Fatalf("lease deadline %v out of range", d)
	}
}

func TestCompleteDeliversAndDupIsNoop(t *testing.T) {
	q := newTestQueue(t, fastConfig())
	tks := enqueueN(t, q, 1)
	l := claimAll(t, q, "w1", 1)

	want := dragonfly.Result{Delivered: 42}
	acc, err := q.Complete(l.ID, l.Tasks[0].ID, Outcome{Result: want}, nil)
	if err != nil || !acc {
		t.Fatalf("complete: accepted=%v err=%v", acc, err)
	}
	if out := waitOutcome(t, tks[0]); out.Err != nil || out.Result.Delivered != 42 {
		t.Fatalf("outcome: %+v", out)
	}
	// Lease retired with its last task; a duplicate submission is
	// discarded as expired, never redelivered.
	if acc, err := q.Complete(l.ID, l.Tasks[0].ID, Outcome{Result: want}, nil); acc || !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("dup complete after lease retired: accepted=%v err=%v", acc, err)
	}
	if st := q.Stats(); st.Completed != 1 || st.LateDiscarded != 1 {
		t.Fatalf("stats after dup: %+v", st)
	}
}

func TestDupWithinLiveLeaseIsIdempotent(t *testing.T) {
	q := newTestQueue(t, fastConfig())
	enqueueN(t, q, 2)
	l := claimAll(t, q, "w1", 2) // 2 tasks keep the lease alive after the first completes
	if acc, err := q.Complete(l.ID, l.Tasks[0].ID, Outcome{}, nil); err != nil || !acc {
		t.Fatalf("first complete: %v %v", acc, err)
	}
	if acc, err := q.Complete(l.ID, l.Tasks[0].ID, Outcome{}, nil); err != nil || acc {
		t.Fatalf("dup within live lease: accepted=%v err=%v, want no-op", acc, err)
	}
	if _, err := q.Complete(l.ID, "t9999", Outcome{}, nil); err == nil {
		t.Fatal("foreign task accepted into lease")
	}
}

func TestExpiryRequeuesWithBackoff(t *testing.T) {
	cfg := fastConfig()
	q := newTestQueue(t, cfg)
	tks := enqueueN(t, q, 1)

	l := claimAll(t, q, "w1", 1)
	// No heartbeat: the lease must expire and the task requeue.
	l2, err := q.WaitClaim(context.Background(), "w2", 1, 5*time.Second, false)
	if err != nil || l2 == nil {
		t.Fatalf("reclaim after expiry: %v %v", l2, err)
	}
	if l2.Tasks[0].ID != tks[0].ID || l2.Tasks[0].Attempt != 2 {
		t.Fatalf("requeued task: %+v, want attempt 2", l2.Tasks[0])
	}
	// The zombie's late result is discarded.
	if acc, err := q.Complete(l.ID, tks[0].ID, Outcome{Result: dragonfly.Result{Delivered: 666}}, nil); acc || !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("zombie result: accepted=%v err=%v", acc, err)
	}
	// The live lease's result wins.
	if _, err := q.Complete(l2.ID, tks[0].ID, Outcome{Result: dragonfly.Result{Delivered: 7}}, nil); err != nil {
		t.Fatal(err)
	}
	if out := waitOutcome(t, tks[0]); out.Result.Delivered != 7 {
		t.Fatalf("outcome came from the zombie: %+v", out)
	}
	st := q.Stats()
	if st.ExpiredLeases != 1 || st.Requeues != 1 || st.LateDiscarded != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	cfg := fastConfig()
	q := newTestQueue(t, cfg)
	tks := enqueueN(t, q, 1)
	l := claimAll(t, q, "w1", 1)

	// Heartbeat for 4 lease durations; the task must not requeue.
	deadline := time.Now().Add(4 * cfg.Lease)
	for time.Now().Before(deadline) {
		if _, err := q.Heartbeat(l.ID); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		time.Sleep(cfg.Lease / 4)
	}
	if st := q.Stats(); st.ExpiredLeases != 0 || st.Requeues != 0 {
		t.Fatalf("heartbeated lease expired anyway: %+v", st)
	}
	if _, err := q.Complete(l.ID, tks[0].ID, Outcome{}, nil); err != nil {
		t.Fatalf("complete after heartbeats: %v", err)
	}
	if _, err := q.Heartbeat("l9999"); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("unknown lease heartbeat: %v", err)
	}
}

func TestPoisonQuarantineDistinctWorkers(t *testing.T) {
	cfg := fastConfig() // PoisonWorkers: 2
	q := newTestQueue(t, cfg)
	tks := enqueueN(t, q, 1)

	for _, w := range []string{"w1", "w2"} {
		l, err := q.WaitClaim(context.Background(), w, 1, 5*time.Second, false)
		if err != nil || l == nil {
			t.Fatalf("%s claim: %v %v", w, l, err)
		}
		// Crash: never heartbeat, never complete.
	}
	out := waitOutcome(t, tks[0])
	if !errors.Is(out.Err, ErrPoison) {
		t.Fatalf("outcome err = %v, want ErrPoison", out.Err)
	}
	for _, w := range []string{"w1", "w2"} {
		if !strings.Contains(out.Err.Error(), w) {
			t.Fatalf("poison error %q does not name crasher %s", out.Err, w)
		}
	}
	st := q.Stats()
	if st.Quarantined != 1 || st.Failed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if l, _ := q.Claim("w3", 1, false); l != nil {
		t.Fatalf("quarantined point handed out again: %+v", l)
	}
}

func TestMaxAttemptsQuarantinesLoneWorker(t *testing.T) {
	cfg := fastConfig()
	cfg.PoisonWorkers = 99 // force the attempts cap to trigger first
	cfg.MaxAttempts = 3
	q := newTestQueue(t, cfg)
	tks := enqueueN(t, q, 1)

	for i := 0; i < cfg.MaxAttempts; i++ {
		l, err := q.WaitClaim(context.Background(), "w1", 1, 5*time.Second, false)
		if err != nil || l == nil {
			t.Fatalf("attempt %d claim: %v %v", i, l, err)
		}
	}
	out := waitOutcome(t, tks[0])
	if !errors.Is(out.Err, ErrPoison) {
		t.Fatalf("lone crashing worker never quarantined: %v", out.Err)
	}
}

func TestDrainFailsPendingCollectsLeased(t *testing.T) {
	cause := errors.New("test: draining")
	q := newTestQueue(t, fastConfig())
	tks := enqueueN(t, q, 3)
	l := claimAll(t, q, "w1", 1) // task 0 leased; 1 and 2 pending

	q.Drain(cause)

	for i := 1; i <= 2; i++ {
		if out := waitOutcome(t, tks[i]); !errors.Is(out.Err, cause) {
			t.Fatalf("pending task %d: err=%v, want drain cause", i, out.Err)
		}
	}
	if _, err := q.Claim("w2", 1, false); !errors.Is(err, cause) {
		t.Fatalf("claim while draining: %v", err)
	}
	if _, err := q.Enqueue("late", cfgN(9), 0, make(chan Delivery, 1)); !errors.Is(err, cause) {
		t.Fatalf("enqueue while draining: %v", err)
	}
	// The leased point is still collectable.
	if _, err := q.Heartbeat(l.ID); err != nil {
		t.Fatalf("heartbeat while draining: %v", err)
	}
	if acc, err := q.Complete(l.ID, l.Tasks[0].ID, Outcome{Result: dragonfly.Result{Delivered: 1}}, nil); err != nil || !acc {
		t.Fatalf("collect while draining: %v %v", acc, err)
	}
	if out := waitOutcome(t, tks[0]); out.Err != nil || out.Result.Delivered != 1 {
		t.Fatalf("collected outcome: %+v", out)
	}
}

func TestDrainExpiryDeliversCauseNotRequeue(t *testing.T) {
	cause := errors.New("test: draining")
	q := newTestQueue(t, fastConfig())
	tks := enqueueN(t, q, 1)
	claimAll(t, q, "w1", 1)
	q.Drain(cause)
	// The worker dies during the drain; the point must fail with the
	// drain cause instead of waiting for claims that can never come.
	if out := waitOutcome(t, tks[0]); !errors.Is(out.Err, cause) {
		t.Fatalf("expired-during-drain outcome: %v, want drain cause", out.Err)
	}
}

func TestWaitClaimWakesOnEnqueue(t *testing.T) {
	q := newTestQueue(t, fastConfig())
	got := make(chan *Lease, 1)
	go func() {
		l, _ := q.WaitClaim(context.Background(), "w1", 1, 5*time.Second, false)
		got <- l
	}()
	time.Sleep(20 * time.Millisecond) // let the claimer block
	enqueueN(t, q, 1)
	select {
	case l := <-got:
		if l == nil || len(l.Tasks) != 1 {
			t.Fatalf("woken claim: %+v", l)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitClaim never woke on enqueue")
	}

	// maxWait expiry returns an empty claim, not an error.
	l, err := q.WaitClaim(context.Background(), "w1", 1, 30*time.Millisecond, false)
	if err != nil || l != nil {
		t.Fatalf("timed-out WaitClaim: %v %v", l, err)
	}
	// ctx cancellation surfaces.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.WaitClaim(ctx, "w1", 1, time.Second, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled WaitClaim: %v", err)
	}
}

func TestLocalLeaseNeverExpires(t *testing.T) {
	cfg := fastConfig()
	q := newTestQueue(t, cfg)
	tks := enqueueN(t, q, 1)
	l, err := q.Claim("local", 1, true)
	if err != nil || l == nil {
		t.Fatalf("local claim: %v %v", l, err)
	}
	if !l.Deadline.IsZero() {
		t.Fatalf("local lease has a deadline: %v", l.Deadline)
	}
	time.Sleep(3 * cfg.Lease) // several lease durations, no heartbeat
	if st := q.Stats(); st.ExpiredLeases != 0 {
		t.Fatalf("local lease expired: %+v", st)
	}
	if _, err := q.Complete(l.ID, l.Tasks[0].ID, Outcome{}, nil); err != nil {
		t.Fatalf("complete local: %v", err)
	}
	if out := waitOutcome(t, tks[0]); out.Err != nil {
		t.Fatal(out.Err)
	}
}

func TestStatsWorkers(t *testing.T) {
	q := newTestQueue(t, fastConfig())
	enqueueN(t, q, 2)
	l := claimAll(t, q, "wb", 1)
	claimAll(t, q, "wa", 1)
	st := q.Stats()
	if st.ActiveLeases != 2 || st.LeasedPoints != 2 || st.QueuedPoints != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.Workers) != 2 || st.Workers[0].Name != "wa" || st.Workers[1].Name != "wb" {
		t.Fatalf("workers not sorted: %+v", st.Workers)
	}
	if st.Workers[1].ActivePoints != 1 || st.Workers[1].HeartbeatAgeSeconds > 5 {
		t.Fatalf("worker wb stats: %+v", st.Workers[1])
	}
	if _, err := q.Complete(l.ID, l.Tasks[0].ID, Outcome{}, nil); err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Workers[1].Completed != 1 {
		t.Fatalf("wb completed not counted: %+v", st)
	}
}

// TestConcurrencySmoke hammers the queue from many producers and
// workers under the race detector: every point must resolve exactly
// once.
func TestConcurrencySmoke(t *testing.T) {
	cfg := fastConfig()
	cfg.Lease = 2 * time.Second // workers here are live, just slow
	q := newTestQueue(t, cfg)

	const producers, points, workers = 4, 25, 6
	outcomes := make(chan Outcome, producers*points)
	var prod sync.WaitGroup
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(p int) {
			defer prod.Done()
			for i := 0; i < points; i++ {
				done := make(chan Delivery, 1)
				tk, err := q.Enqueue(fmt.Sprintf("p%d-%d", p, i), cfgN(p*points+i), 0, done)
				if err != nil {
					t.Error(err)
					return
				}
				q.Release(tk)
				outcomes <- waitOutcome(t, &tkt{tk, done})
			}
		}(p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var work sync.WaitGroup
	for w := 0; w < workers; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			name := fmt.Sprintf("w%d", w)
			for ctx.Err() == nil {
				l, err := q.WaitClaim(ctx, name, 3, 50*time.Millisecond, false)
				if err != nil || l == nil {
					continue
				}
				for _, task := range l.Tasks {
					q.Complete(l.ID, task.ID, Outcome{Result: dragonfly.Result{Delivered: 1}}, nil) //nolint:errcheck
				}
			}
		}(w)
	}
	prod.Wait()
	cancel()
	work.Wait()
	close(outcomes)
	n := 0
	for out := range outcomes {
		if out.Err != nil || out.Result.Delivered != 1 {
			t.Fatalf("outcome: %+v", out)
		}
		n++
	}
	if n != producers*points {
		t.Fatalf("%d outcomes, want %d", n, producers*points)
	}
	if st := q.Stats(); st.Completed != producers*points {
		t.Fatalf("completed = %d, want %d", st.Completed, producers*points)
	}
}

// TestDedupJoinsLiveTask: a key enqueued while its task is live joins
// that task: one lease, one execution, one outcome for every ticket.
// keep runs before delivery, and a delivered key is forgotten, so the
// next enqueue starts a fresh task.
func TestDedupJoinsLiveTask(t *testing.T) {
	q := newTestQueue(t, fastConfig())
	done := make(chan Delivery, 3)
	first, err := q.Enqueue("k", cfgN(0), 0, done)
	if err != nil || first.Joined {
		t.Fatalf("first enqueue: %+v %v", first, err)
	}
	// A held task is not claimable, but identical points still join it.
	if l, _ := q.Claim("w1", 1, false); l != nil {
		t.Fatalf("held task handed out: %+v", l)
	}
	second, err := q.Enqueue("k", cfgN(0), 1, done)
	if err != nil || !second.Joined || second.ID != first.ID {
		t.Fatalf("second enqueue: %+v %v, want joined to %s", second, err, first.ID)
	}
	q.Release(first)
	third, _ := q.Enqueue("k", cfgN(0), 2, done) // joins a pending task too
	if !third.Joined {
		t.Fatal("enqueue of a pending key did not join")
	}
	l := claimAll(t, q, "w1", 10)
	if len(l.Tasks) != 1 || l.Tasks[0].Key != "k" {
		t.Fatalf("lease: %+v, want the one task", l.Tasks)
	}

	var kept []Task
	keep := func(task Task, out Outcome) {
		if len(done) != 0 {
			t.Error("outcome delivered before keep ran")
		}
		kept = append(kept, task)
	}
	want := dragonfly.Result{Delivered: 5}
	if acc, err := q.Complete(l.ID, l.Tasks[0].ID, Outcome{Result: want}, keep); !acc || err != nil {
		t.Fatalf("complete: %v %v", acc, err)
	}
	if len(kept) != 1 || kept[0].Key != "k" || kept[0].ID != first.ID {
		t.Fatalf("keep saw %+v", kept)
	}
	tags := map[int]bool{}
	for range 3 {
		d := <-done
		if d.Err != nil || d.Result.Delivered != 5 {
			t.Fatalf("delivery %+v", d)
		}
		tags[d.Tag] = true
	}
	if len(tags) != 3 {
		t.Fatalf("tags delivered: %v", tags)
	}
	if st := q.Stats(); st.Completed != 1 {
		t.Fatalf("completed = %d, want 1 task", st.Completed)
	}

	again, _ := q.Enqueue("k", cfgN(0), 0, done)
	if again.Joined || again.ID == first.ID {
		t.Fatalf("finished task was not forgotten: %+v", again)
	}
}

// TestDedupResolveWithoutLease: a held task resolved by its enqueuer (a
// store hit) delivers to every attached ticket and never reaches a
// worker or the completion counters.
func TestDedupResolveWithoutLease(t *testing.T) {
	q := newTestQueue(t, fastConfig())
	done := make(chan Delivery, 2)
	first, _ := q.Enqueue("k", cfgN(0), 0, done)
	q.Enqueue("k", cfgN(0), 1, done) //nolint:errcheck // joins first
	q.Resolve(first, Outcome{Result: dragonfly.Result{Delivered: 3}})
	for range 2 {
		if d := <-done; d.Result.Delivered != 3 {
			t.Fatalf("delivery %+v", d)
		}
	}
	q.Release(first) // no-op: already resolved
	if l, _ := q.Claim("w1", 1, false); l != nil {
		t.Fatalf("resolved task handed out: %+v", l)
	}
	if st := q.Stats(); st.Completed != 0 || st.Failed != 0 || st.QueuedPoints != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDedupDistinctKeysIndependent: only equal keys share a task.
func TestDedupDistinctKeysIndependent(t *testing.T) {
	q := newTestQueue(t, fastConfig())
	tks := enqueueN(t, q, 4)
	ids := map[string]bool{}
	for _, tk := range tks {
		if tk.Joined {
			t.Fatalf("distinct key joined: %+v", tk.Ticket)
		}
		ids[tk.ID] = true
	}
	if l := claimAll(t, q, "w1", 10); len(ids) != 4 || len(l.Tasks) != 4 {
		t.Fatalf("%d tasks, %d claimed; want 4 each", len(ids), len(l.Tasks))
	}
}

// TestDrainHeldTask: a task still held when the queue drains stays with
// its enqueuer: Release fails every attached ticket with the cause,
// Resolve still delivers.
func TestDrainHeldTask(t *testing.T) {
	cause := errors.New("test: draining")
	q := newTestQueue(t, fastConfig())
	done := make(chan Delivery, 3)
	miss, _ := q.Enqueue("miss", cfgN(0), 0, done)
	q.Enqueue("miss", cfgN(0), 1, done) //nolint:errcheck // joins miss
	hit, _ := q.Enqueue("hit", cfgN(1), 2, done)
	q.Drain(cause)
	if len(done) != 0 {
		t.Fatal("drain delivered to held tasks")
	}
	q.Release(miss)
	q.Resolve(hit, Outcome{Result: dragonfly.Result{Delivered: 1}})
	for range 3 {
		d := <-done
		switch d.Tag {
		case 0, 1:
			if !errors.Is(d.Err, cause) {
				t.Fatalf("released-while-draining ticket %d: %v", d.Tag, d.Err)
			}
		case 2:
			if d.Err != nil || d.Result.Delivered != 1 {
				t.Fatalf("resolved-while-draining ticket: %+v", d)
			}
		}
	}
}

// TestConcurrentDedup: producers enqueue overlapping keys while workers
// claim and complete. Every ticket gets exactly one outcome, and no key
// is ever executing twice at once.
func TestConcurrentDedup(t *testing.T) {
	cfg := fastConfig()
	cfg.Lease = 2 * time.Second // workers here are live, just slow
	q := newTestQueue(t, cfg)

	const producers, points, keys, workers = 4, 30, 5, 3
	var (
		mu      sync.Mutex
		running = map[string]int{}
		kept    int64
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var work sync.WaitGroup
	for w := 0; w < workers; w++ {
		work.Add(1)
		go func(w int) {
			defer work.Done()
			name := fmt.Sprintf("w%d", w)
			for ctx.Err() == nil {
				l, err := q.WaitClaim(ctx, name, 2, 50*time.Millisecond, false)
				if err != nil || l == nil {
					continue
				}
				for _, task := range l.Tasks {
					mu.Lock()
					running[task.Key]++
					if running[task.Key] > 1 {
						t.Errorf("key %s executing twice at once", task.Key)
					}
					mu.Unlock()
					q.Complete(l.ID, task.ID, Outcome{Result: dragonfly.Result{Delivered: 1}}, //nolint:errcheck
						func(task Task, _ Outcome) {
							mu.Lock()
							running[task.Key]--
							kept++
							mu.Unlock()
						})
				}
			}
		}(w)
	}
	var prod sync.WaitGroup
	got := make([]int, producers)
	for p := 0; p < producers; p++ {
		prod.Add(1)
		go func(p int) {
			defer prod.Done()
			done := make(chan Delivery, points)
			for i := 0; i < points; i++ {
				tk, err := q.Enqueue(fmt.Sprintf("k%d", i%keys), cfgN(i%keys), i, done)
				if err != nil {
					t.Error(err)
					return
				}
				if !tk.Joined {
					q.Release(tk)
				}
			}
			for range points {
				select {
				case d := <-done:
					if d.Err != nil || d.Result.Delivered != 1 {
						t.Errorf("producer %d: delivery %+v", p, d)
					}
					got[p]++
				case <-time.After(5 * time.Second):
					t.Errorf("producer %d: %d of %d outcomes", p, got[p], points)
					return
				}
			}
			select {
			case d := <-done:
				t.Errorf("producer %d: extra delivery %+v", p, d)
			default:
			}
		}(p)
	}
	prod.Wait()
	cancel()
	work.Wait()
	if st := q.Stats(); st.Completed != kept || st.Completed > producers*points {
		t.Fatalf("completed %d, kept %d", st.Completed, kept)
	}
}
