package srv

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
	"repro/internal/exp/queue"
)

// The chaos suite proves the fleet's robustness claim: any worker can
// die at any moment — mid-point, silently (zombie), or repeatedly on
// the same point — and the coordinator can restart mid-campaign, yet
// the final canonical JSONL is byte-identical to a serial local run.
// Determinism makes at-least-once execution safe; these tests make the
// at-least-once machinery visible.

// fastFleet is a queue tuned for test time: leases expire in 150ms,
// requeue backoff is a few ms, two distinct crashes quarantine.
func fastFleet() queue.Config {
	return queue.Config{
		Lease:         150 * time.Millisecond,
		Tick:          15 * time.Millisecond,
		PoisonWorkers: 2,
		MaxAttempts:   5,
		BackoffBase:   5 * time.Millisecond,
		BackoffMax:    20 * time.Millisecond,
	}
}

// serialBaseline runs the campaign serially in-process — the reference
// every chaos scenario must byte-match.
func serialBaseline(t *testing.T, camp exp.Campaign) ([]exp.Outcome, []byte) {
	t.Helper()
	var buf bytes.Buffer
	outs, err := exp.Run(context.Background(), camp, exp.Options{
		Workers: 1, SeedBase: 42, JSONL: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return outs, buf.Bytes()
}

type chaosWorker struct {
	wk     *Worker
	cancel context.CancelFunc
	done   chan struct{}
}

// startChaosWorker runs an in-process fleet worker against the given
// coordinator URL. stub, when non-nil, builds the worker's runSim and
// receives a kill switch that cancels the worker's context — the
// in-process equivalent of SIGKILL: no result submission, no further
// heartbeats.
func startChaosWorker(t *testing.T, url, name string,
	stub func(kill context.CancelFunc) func(context.Context, dragonfly.Config) (dragonfly.Result, error)) *chaosWorker {
	t.Helper()
	store, err := exp.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := NewWorker(WorkerConfig{
		Coordinator: url, Name: name, Store: store,
		Sims: 1, Batch: 1, Poll: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if stub != nil {
		wk.runSim = stub(cancel)
	}
	done := make(chan struct{})
	go func() {
		wk.Run(ctx) //nolint:errcheck // only ever ctx.Err()
		close(done)
	}()
	t.Cleanup(func() { cancel(); <-done })
	return &chaosWorker{wk: wk, cancel: cancel, done: done}
}

// kill is SIGKILL: the worker stops heartbeating and submitting at once.
func (w *chaosWorker) kill() {
	w.cancel()
	<-w.done
}

// rawPost drives the lease API directly, for scenarios (zombies) no
// well-behaved Worker would produce.
func rawPost(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp.StatusCode
}

// fleetStats polls the observability endpoint.
func fleetStats(t *testing.T, c *Client) queue.FleetStats {
	t.Helper()
	st, err := c.FleetStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestChaosWorkerKilledMidPoint: a worker is SIGKILLed while simulating
// a point. Its lease expires, the point requeues, a healthy worker
// finishes it, and the output is byte-identical to a serial local run.
func TestChaosWorkerKilledMidPoint(t *testing.T) {
	camp := tinyCampaign()
	_, localJSONL := serialBaseline(t, camp)

	ts := newTestServer(t, Config{SimWorkers: -1, Fleet: fastFleet()})

	var remoteJSONL bytes.Buffer
	runErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() {
		_, err := ts.client.Run(ctx, camp, exp.Options{SeedBase: 42, JSONL: &remoteJSONL})
		runErr <- err
	}()

	// The victim blocks in its first simulation until killed.
	simStarted := make(chan struct{}, 1)
	victim := startChaosWorker(t, ts.http.URL, "victim",
		func(kill context.CancelFunc) func(context.Context, dragonfly.Config) (dragonfly.Result, error) {
			return func(simCtx context.Context, cfg dragonfly.Config) (dragonfly.Result, error) {
				select {
				case simStarted <- struct{}{}:
				default:
				}
				<-simCtx.Done()
				return dragonfly.Result{}, simCtx.Err()
			}
		})
	<-simStarted
	victim.kill()

	// A healthy worker takes over, including the requeued point.
	startChaosWorker(t, ts.http.URL, "good", nil)

	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localJSONL, remoteJSONL.Bytes()) {
		t.Fatalf("JSONL after worker kill differs from serial local run:\nlocal:  %s\nremote: %s",
			localJSONL, remoteJSONL.Bytes())
	}
	st := fleetStats(t, ts.client)
	if st.Requeues < 1 || st.ExpiredLeases < 1 {
		t.Fatalf("kill left no trace in fleet stats: %+v", st)
	}
	for _, w := range st.Workers {
		if w.Name == "victim" && w.Crashes < 1 {
			t.Fatalf("victim's crash not recorded: %+v", w)
		}
	}
}

// TestChaosZombieLateResult: a worker claims a point, goes silent past
// its lease (the point requeues), then submits a result anyway. The
// zombie's submission must be discarded with 410 — its fabricated
// result must not reach the campaign — and the requeued execution wins.
func TestChaosZombieLateResult(t *testing.T) {
	camp := tinyCampaign()
	_, localJSONL := serialBaseline(t, camp)

	ts := newTestServer(t, Config{SimWorkers: -1, Fleet: fastFleet()})

	var remoteJSONL bytes.Buffer
	runErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() {
		_, err := ts.client.Run(ctx, camp, exp.Options{SeedBase: 42, JSONL: &remoteJSONL})
		runErr <- err
	}()

	// The zombie claims one point and never heartbeats.
	var grant LeaseGrant
	status := rawPost(t, ts.http.URL+"/api/v1/leases",
		claimRequest{Worker: "zombie", Max: 1, WaitMS: 5000}, &grant)
	if status != http.StatusOK || grant.ID == "" || len(grant.Points) != 1 {
		t.Fatalf("zombie claim: status %d, grant %+v", status, grant)
	}

	// Wait out the lease: the point requeues.
	waitFor(t, func() bool { return fleetStats(t, ts.client).ExpiredLeases >= 1 })

	// The zombie wakes up and submits a fabricated result under its dead
	// lease. 410; the poison marker value must never surface.
	status = rawPost(t, ts.http.URL+"/api/v1/leases/"+grant.ID+"/results",
		resultsRequest{Results: []TaskResult{{
			Task:   grant.Points[0].Task,
			Result: &dragonfly.Result{Delivered: -777},
		}}}, nil)
	if status != http.StatusGone {
		t.Fatalf("zombie submission: status %d, want %d", status, http.StatusGone)
	}

	startChaosWorker(t, ts.http.URL, "good", nil)

	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(remoteJSONL.Bytes(), []byte("-777")) {
		t.Fatal("zombie's fabricated result reached the campaign output")
	}
	if !bytes.Equal(localJSONL, remoteJSONL.Bytes()) {
		t.Fatalf("JSONL after zombie discard differs from serial local run:\nlocal:  %s\nremote: %s",
			localJSONL, remoteJSONL.Bytes())
	}
	if st := fleetStats(t, ts.client); st.LateDiscarded < 1 {
		t.Fatalf("late discard not counted: %+v", st)
	}
}

// TestChaosCoordinatorRestart: the coordinator dies mid-campaign and
// comes back on the same address with the same store directory. The
// client resubmits on campaign-lost, the worker rejoins with backoff,
// finished points replay from the persistent store, and the output is
// byte-identical to a serial local run.
func TestChaosCoordinatorRestart(t *testing.T) {
	camp := tinyCampaign()
	_, localJSONL := serialBaseline(t, camp)

	storeDir := t.TempDir()
	newCoordinator := func() (*Server, *exp.Store) {
		store, err := exp.OpenStore(storeDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Store: store, SimWorkers: -1, Fleet: fastFleet()})
		if err != nil {
			t.Fatal(err)
		}
		return s, store
	}

	srv1, _ := newCoordinator()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs1 := &http.Server{Handler: srv1.Handler()}
	go hs1.Serve(ln) //nolint:errcheck

	// One persistent worker outlives the coordinator.
	wkStore, err := exp.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := NewWorker(WorkerConfig{
		Coordinator: "http://" + addr, Name: "w1", Store: wkStore,
		Sims: 1, Batch: 1, Poll: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wkCtx, wkCancel := context.WithCancel(context.Background())
	wkDone := make(chan struct{})
	go func() {
		wk.Run(wkCtx) //nolint:errcheck
		close(wkDone)
	}()
	t.Cleanup(func() { wkCancel(); <-wkDone })

	client := NewClient("http://" + addr)
	var remoteJSONL bytes.Buffer
	var done atomic.Int64
	runErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() {
		_, err := client.Run(ctx, camp, exp.Options{
			SeedBase: 42, JSONL: &remoteJSONL,
			Progress: func(exp.Progress) { done.Add(1) },
		})
		runErr <- err
	}()

	// Let at least one point finish and persist, then kill the
	// coordinator abruptly: connections drop, campaign registry and all
	// leases are gone.
	waitFor(t, func() bool { return done.Load() >= 1 })
	hs1.Close() //nolint:errcheck
	srv1.Close()

	// Restart on the same address over the same store.
	srv2, _ := newCoordinator()
	var ln2 net.Listener
	waitFor(t, func() bool {
		var lerr error
		ln2, lerr = net.Listen("tcp", addr)
		return lerr == nil
	})
	hs2 := &http.Server{Handler: srv2.Handler()}
	go hs2.Serve(ln2) //nolint:errcheck
	t.Cleanup(func() {
		srv2.Close()
		hs2.Close() //nolint:errcheck
	})

	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(localJSONL, remoteJSONL.Bytes()) {
		t.Fatalf("JSONL across coordinator restart differs from serial local run:\nlocal:  %s\nremote: %s",
			localJSONL, remoteJSONL.Bytes())
	}
}

// TestChaosPoisonPoint: one point reliably kills whichever worker runs
// it. After PoisonWorkers distinct crashes it is quarantined — its
// error surfaces through the normal per-point path — while every other
// point completes with results identical to the serial local run.
func TestChaosPoisonPoint(t *testing.T) {
	camp := tinyCampaign()
	localOuts, _ := serialBaseline(t, camp)

	const poisonIdx = 1
	poisonSeed := exp.PointSeed(42, poisonIdx)
	isPoison := func(cfg dragonfly.Config) bool { return cfg.Seed == poisonSeed }

	ts := newTestServer(t, Config{SimWorkers: -1, Fleet: fastFleet()})

	runOuts := make(chan []exp.Outcome, 1)
	runErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	go func() {
		outs, err := ts.client.Run(ctx, camp, exp.Options{SeedBase: 42})
		runOuts <- outs
		runErr <- err
	}()

	// Two workers in sequence; each dies the moment it starts the poison
	// point and runs everything else for real.
	evil := func(kill context.CancelFunc) func(context.Context, dragonfly.Config) (dragonfly.Result, error) {
		return func(simCtx context.Context, cfg dragonfly.Config) (dragonfly.Result, error) {
			if isPoison(cfg) {
				kill()
				<-simCtx.Done()
				return dragonfly.Result{}, simCtx.Err()
			}
			return dragonfly.RunContext(simCtx, cfg)
		}
	}
	for i, name := range []string{"evil1", "evil2"} {
		w := startChaosWorker(t, ts.http.URL, name, evil)
		<-w.done // the worker killed itself on the poison point
		want := int64(i + 1)
		waitFor(t, func() bool { return fleetStats(t, ts.client).ExpiredLeases >= want })
	}
	waitFor(t, func() bool { return fleetStats(t, ts.client).Quarantined >= 1 })

	// A good worker mops up whatever the evil ones left unfinished; the
	// quarantined point is never dispatched again.
	startChaosWorker(t, ts.http.URL, "good", nil)

	outs := <-runOuts
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if i == poisonIdx {
			if outs[i].Err == nil || !strings.Contains(outs[i].Err.Error(), "quarantined") {
				t.Fatalf("poison point error = %v, want quarantine", outs[i].Err)
			}
			continue
		}
		if outs[i].Err != nil {
			t.Fatalf("point %d: %v", i, outs[i].Err)
		}
		if !reflect.DeepEqual(localOuts[i].Result, outs[i].Result) {
			t.Fatalf("point %d result diverges from serial local run", i)
		}
	}
	st := fleetStats(t, ts.client)
	if st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1 (%+v)", st.Quarantined, st)
	}
}

// TestDrainCollectsOutstandingLeases: SIGTERM (Drain) with a lease
// outstanding stops issuing new leases, still collects the in-flight
// point from its worker, fails the unstarted ones fast, and flushes a
// well-formed canonical JSONL mirror.
func TestDrainCollectsOutstandingLeases(t *testing.T) {
	jsonlDir := t.TempDir()
	store, err := exp.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{
		Store: store, SimWorkers: -1, JSONLDir: jsonlDir, Fleet: fastFleet(),
	})

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	startChaosWorker(t, ts.http.URL, "w1",
		func(kill context.CancelFunc) func(context.Context, dragonfly.Config) (dragonfly.Result, error) {
			return func(simCtx context.Context, cfg dragonfly.Config) (dragonfly.Result, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				select {
				case <-release:
					return dragonfly.Result{Delivered: 99}, nil
				case <-simCtx.Done():
					return dragonfly.Result{}, simCtx.Err()
				}
			}
		})

	camp := tinyCampaign()
	id, err := ts.client.Submit(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds a lease and is mid-simulation

	drained := make(chan error, 1)
	go func() { drained <- ts.srv.Drain(context.Background()) }()
	waitFor(t, func() bool { return ts.client.Health(context.Background()) != nil })

	// No new leases while draining.
	if status := rawPost(t, ts.http.URL+"/api/v1/leases",
		claimRequest{Worker: "late", Max: 1}, nil); status != http.StatusServiceUnavailable {
		t.Fatalf("claim while draining: status %d, want 503", status)
	}

	// The in-flight point is still collected, heartbeats and all.
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	st, err := ts.client.Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished || st.Done != st.Total || st.Executed != 1 {
		t.Fatalf("after drain: %+v, want finished with exactly the leased point executed", st)
	}

	// The mirror is well-formed canonical JSONL: exactly one collected
	// result, the rest failed fast with the draining error.
	buf, err := os.ReadFile(filepath.Join(jsonlDir, id+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) == 0 || buf[len(buf)-1] != '\n' {
		t.Fatal("JSONL mirror ends in a torn line")
	}
	var collected, drainedPts int
	for i, line := range bytes.Split(bytes.TrimSuffix(buf, []byte("\n")), []byte("\n")) {
		var rec exp.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("JSONL line %d: %v", i, err)
		}
		switch {
		case rec.Result != nil && rec.Result.Delivered == 99:
			collected++
		case strings.Contains(rec.Error, "draining"):
			drainedPts++
		default:
			t.Fatalf("JSONL line %d is neither collected nor drained: %s", i, line)
		}
	}
	if collected != 1 || drainedPts != len(camp.Points)-1 {
		t.Fatalf("mirror: %d collected, %d drained, want 1 and %d",
			collected, drainedPts, len(camp.Points)-1)
	}
}

// TestDrainClaimKeepsGrantedLease: a claim the queue grants while the
// server is already draining (the queue itself not yet drained) must
// reach its worker. Answering 503 would strand the points on a lease
// nobody holds until it expires.
func TestDrainClaimKeepsGrantedLease(t *testing.T) {
	ts := newTestServer(t, Config{SimWorkers: -1, Fleet: fastFleet()})
	ts.srv.draining.Store(true)
	cfg := tinyCampaign().Points[0].Config
	tk, err := ts.srv.queue.Enqueue(ts.srv.store.Key(cfg), cfg, 0, make(chan queue.Delivery, 1))
	if err != nil {
		t.Fatal(err)
	}
	ts.srv.queue.Release(tk)

	var grant LeaseGrant
	status := rawPost(t, ts.http.URL+"/api/v1/leases", claimRequest{Worker: "w1", Max: 1}, &grant)
	if status != http.StatusOK || grant.ID == "" || len(grant.Points) != 1 || grant.Points[0].Task != tk.ID {
		t.Fatalf("claim while draining: status %d, grant %+v; want the granted lease", status, grant)
	}
}

// TestWorkerJoinsLateCoordinator: a worker started before its
// coordinator exists keeps backing off and joins once the coordinator
// comes up — the rejoin half of restart-survival, isolated.
func TestWorkerJoinsLateCoordinator(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port: nothing is listening yet

	startChaosWorker(t, "http://"+addr, "early", nil)
	time.Sleep(50 * time.Millisecond) // let a few claims fail

	store, err := exp.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: store, SimWorkers: -1, Fleet: fastFleet()})
	if err != nil {
		t.Fatal(err)
	}
	var ln2 net.Listener
	waitFor(t, func() bool {
		var lerr error
		ln2, lerr = net.Listen("tcp", addr)
		return lerr == nil
	})
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln2) //nolint:errcheck
	t.Cleanup(func() {
		s.Close()
		hs.Close() //nolint:errcheck
	})

	camp := tinyCampaign()
	client := NewClient("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	outs, err := client.Run(ctx, camp, exp.Options{SeedBase: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if outs[i].Err != nil {
			t.Fatalf("point %d: %v", i, outs[i].Err)
		}
	}
	if got := client.LastStatus().Executed; got != len(camp.Points) {
		t.Fatalf("executed %d, want %d (all on the late-joining worker)", got, len(camp.Points))
	}
}
