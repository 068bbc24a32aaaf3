package queue

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	dragonfly "repro"
)

// TestQueueModel runs seeded random sequences of enqueue (with repeated
// keys), settle (release or resolve a held task), claim, heartbeat,
// expire, complete (including zombie submissions) and drain against one
// queue, checking after every step that no key has two live tasks and
// that the counters add up, and at the end that every ticket resolved
// exactly once, with the same outcome as every ticket attached to the
// same task. Expiry is driven by hand; the scanner never fires.
func TestQueueModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runQueueModel(t, seed, 300) })
	}
}

// modelTask is what the test knows about one task.
type modelTask struct {
	key      string
	tags     []int
	resolved bool    // settled by Resolve: no lease, no counter
	want     Outcome // the outcome submitted for it, once there is one
	wantSet  bool
}

func runQueueModel(t *testing.T, seed uint64, steps int) {
	q := newTestQueue(t, Config{
		Lease: time.Hour, Tick: time.Hour, // expiry only by hand
		PoisonWorkers: 2, MaxAttempts: 3,
		BackoffBase: time.Nanosecond, BackoffMax: time.Nanosecond,
	})
	r := rand.New(rand.NewPCG(seed, 0))
	cause := errors.New("model: draining")
	done := make(chan Delivery, steps+1)

	tasks := map[string]*modelTask{} // by task ID
	var held []Ticket                // non-joined tickets not yet settled
	var leases []*Lease              // every lease granted, live or not
	var tags int                     // tickets issued
	var lateDrops int64
	draining := false
	got := map[int]Outcome{} // deliveries so far, by tag

	collect := func() {
		for {
			select {
			case d := <-done:
				if _, dup := got[d.Tag]; dup {
					t.Fatalf("ticket %d resolved twice", d.Tag)
				}
				got[d.Tag] = d.Outcome
			default:
				return
			}
		}
	}
	liveLease := func(l *Lease) bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.leases[l.ID] != nil
	}
	complete := func(l *Lease, task Task) {
		out := Outcome{Result: dragonfly.Result{Delivered: r.Int64N(1000)}}
		if r.IntN(5) == 0 {
			out = Outcome{Err: errors.New("sim failed")}
		}
		live := liveLease(l)
		acc, err := q.Complete(l.ID, task.ID, out, nil)
		switch {
		case !live:
			lateDrops++
			if acc || !errors.Is(err, ErrLeaseExpired) {
				t.Fatalf("zombie complete: %v %v", acc, err)
			}
		case err != nil:
			t.Fatalf("complete %s/%s: %v", l.ID, task.ID, err)
		case acc:
			mt := tasks[task.ID]
			if mt.wantSet {
				t.Fatalf("task %s accepted twice", task.ID)
			}
			mt.want, mt.wantSet = out, true
		}
	}

	for step := 0; step < steps; step++ {
		switch op := r.IntN(100); {
		case op < 35: // enqueue, often a repeated key
			key := fmt.Sprintf("k%d", r.IntN(6))
			prevID := "" // the key's live task, if any
			q.mu.Lock()
			if prev := q.live[key]; prev != nil {
				prevID = prev.id
			}
			q.mu.Unlock()
			tk, err := q.Enqueue(key, cfgN(0), tags, done)
			if draining {
				if err == nil {
					t.Fatal("enqueue accepted while draining")
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if tk.Joined != (prevID != "") || (tk.Joined && tk.ID != prevID) {
				t.Fatalf("enqueue %s: ticket %s joined=%v, live task %q", key, tk.ID, tk.Joined, prevID)
			}
			if !tk.Joined {
				tasks[tk.ID] = &modelTask{key: key}
				held = append(held, tk)
			}
			tasks[tk.ID].tags = append(tasks[tk.ID].tags, tags)
			tags++
		case op < 50 && len(held) > 0: // settle: store hit or miss
			i := r.IntN(len(held))
			tk := held[i]
			held = slices.Delete(held, i, i+1)
			if r.IntN(3) == 0 {
				out := Outcome{Result: dragonfly.Result{Delivered: -1}}
				q.Resolve(tk, out)
				mt := tasks[tk.ID]
				mt.resolved, mt.want, mt.wantSet = true, out, true
			} else {
				q.Release(tk)
			}
		case op < 70: // claim
			l, err := q.Claim(fmt.Sprintf("w%d", r.IntN(3)), 1+r.IntN(3), r.IntN(4) == 0)
			if draining != (err != nil) {
				t.Fatalf("claim: draining=%v err=%v", draining, err)
			}
			if l != nil {
				leases = append(leases, l)
			}
		case op < 75 && len(leases) > 0: // heartbeat
			l := leases[r.IntN(len(leases))]
			_, err := q.Heartbeat(l.ID)
			if liveLease(l) != (err == nil) {
				t.Fatalf("heartbeat %s: %v", l.ID, err)
			}
		case op < 85 && len(leases) > 0: // expire one remote lease
			l := leases[r.IntN(len(leases))]
			q.mu.Lock()
			if ql := q.leases[l.ID]; ql != nil && !ql.local {
				ql.deadline = time.Now().Add(-time.Second)
				q.expireLocked(time.Now())
			}
			q.mu.Unlock()
		case op < 99 && len(leases) > 0: // complete, possibly as a zombie
			l := leases[r.IntN(len(leases))]
			complete(l, l.Tasks[r.IntN(len(l.Tasks))])
		case op == 99 && !draining:
			q.Drain(cause)
			draining = true
		}
		collect()
		checkQueueInvariants(t, q, tasks, got, lateDrops)
	}

	// Wind down: drain, settle what is held, complete every live lease.
	if !draining {
		q.Drain(cause)
	}
	for _, tk := range held {
		q.Release(tk)
	}
	for _, l := range leases {
		for _, task := range l.Tasks {
			if liveLease(l) {
				complete(l, task)
			}
		}
	}
	collect()
	checkQueueInvariants(t, q, tasks, got, lateDrops)

	if len(got) != tags {
		t.Fatalf("%d of %d tickets resolved", len(got), tags)
	}
	for id, mt := range tasks {
		first := got[mt.tags[0]]
		for _, tag := range mt.tags {
			if o := got[tag]; !sameOutcome(o, first) {
				t.Fatalf("task %s: ticket %d got %+v, ticket %d got %+v", id, tag, o, mt.tags[0], first)
			}
		}
		switch {
		case mt.wantSet:
			if !sameOutcome(first, mt.want) {
				t.Fatalf("task %s: delivered %+v, submitted %+v", id, first, mt.want)
			}
		case !errors.Is(first.Err, cause) && !errors.Is(first.Err, ErrPoison):
			t.Fatalf("task %s: delivered %+v with no submission, drain or quarantine", id, first)
		}
	}
}

// sameOutcome compares outcomes by the fields the model sets.
func sameOutcome(a, b Outcome) bool {
	return a.Result.Delivered == b.Result.Delivered && fmt.Sprint(a.Err) == fmt.Sprint(b.Err)
}

// checkQueueInvariants checks the queue's state against what the model
// has seen delivered: one live task per key, and counters that account
// for every task.
func checkQueueInvariants(t *testing.T, q *Queue, tasks map[string]*modelTask, got map[int]Outcome, lateDrops int64) {
	t.Helper()
	q.mu.Lock()
	defer q.mu.Unlock()
	seen := map[*task]bool{}
	place := func(where string, tk *task) {
		if seen[tk] {
			t.Fatalf("task %s is in two places (%s)", tk.id, where)
		}
		seen[tk] = true
		if q.live[tk.key] != tk {
			t.Fatalf("%s task %s is not the live task of key %s", where, tk.id, tk.key)
		}
	}
	for _, tk := range q.ready {
		place("ready", tk)
	}
	for _, tk := range q.delayed {
		place("delayed", tk)
	}
	for _, l := range q.leases {
		for _, tk := range l.pending {
			place("leased", tk)
		}
	}
	for key, tk := range q.live {
		if tk.key != key {
			t.Fatalf("live[%s] holds task of key %s", key, tk.key)
		}
		if !seen[tk] && tk.state != stateHeld {
			t.Fatalf("live task %s (key %s) is held, queued or leased nowhere", tk.id, key)
		}
	}

	// Every task the model created is live or delivered to all its
	// tickets; delivered unresolved tasks are exactly completed+failed.
	delivered, resolved := 0, 0
	for id, mt := range tasks {
		n := 0
		for _, tag := range mt.tags {
			if _, ok := got[tag]; ok {
				n++
			}
		}
		isLive := q.live[mt.key] != nil && q.live[mt.key].id == id
		switch {
		case n == len(mt.tags) && !isLive:
			delivered++
			if mt.resolved {
				resolved++
			}
		case n == 0 && isLive:
		default:
			t.Fatalf("task %s: %d of %d tickets resolved, live=%v", id, n, len(mt.tags), isLive)
		}
	}
	if int64(delivered-resolved) != q.completed+q.failed {
		t.Fatalf("%d delivered unresolved tasks, counters say %d completed + %d failed",
			delivered-resolved, q.completed, q.failed)
	}
	if len(tasks) != delivered+len(q.live) {
		t.Fatalf("%d tasks created, %d delivered + %d live", len(tasks), delivered, len(q.live))
	}
	if q.lateDrop != lateDrops {
		t.Fatalf("late discards %d, model %d", q.lateDrop, lateDrops)
	}
	if q.quarantined > q.failed || q.expired > q.requeues {
		t.Fatalf("counters: quarantined %d > failed %d or expired leases %d > requeues %d",
			q.quarantined, q.failed, q.expired, q.requeues)
	}
}
