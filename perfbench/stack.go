package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/exp/queue"
	"repro/internal/exp/srv"
)

// stack is one in-process campaign service: a result store, the server
// with one local sim slot behind a loopback httptest listener, one fleet
// worker with one sim slot pulling leases over HTTP, and a client. That
// is two sim slots on the 2-CPU reference box.
type stack struct {
	store  *exp.Store
	server *srv.Server
	ts     *httptest.Server
	http   *httpLayer
	client *srv.Client

	stopWorker context.CancelFunc
	workerDone chan struct{}
}

// startStack opens the store on dir and brings the service up until
// /healthz answers ok. It returns the store-open time separately, for
// exp.store_open_ms.
func startStack(ctx context.Context, dir string, chk *checker, rec *recorder, parent int64) (*stack, time.Duration, error) {
	t0 := time.Now()
	store, err := exp.OpenStore(dir, 0)
	if err != nil {
		return nil, 0, err
	}
	open := time.Since(t0)
	rec.add("exp.store_open", dir, parent, t0, t0.Add(open))
	server, err := srv.New(srv.Config{Store: store, SimWorkers: 1})
	if err != nil {
		return nil, 0, err
	}
	layer := newHTTPLayer(server.Handler(), chk, rec)
	ts := httptest.NewServer(layer)
	wk, err := srv.NewWorker(srv.WorkerConfig{Coordinator: ts.URL, Name: "bench-worker", Sims: 1})
	if err != nil {
		server.Close()
		ts.Close()
		return nil, 0, err
	}
	wctx, cancel := context.WithCancel(context.Background())
	s := &stack{
		store: store, server: server, ts: ts, http: layer, client: srv.NewClient(ts.URL),
		stopWorker: cancel, workerDone: make(chan struct{}),
	}
	go func() {
		defer close(s.workerDone)
		wk.Run(wctx) //nolint:errcheck // returns only ctx's error, on stop
	}()
	for {
		err := s.client.Health(ctx)
		if err == nil {
			break
		}
		if ctx.Err() != nil || time.Since(t0) > 10*time.Second {
			s.close()
			return nil, 0, fmt.Errorf("service never became healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	return s, open, nil
}

// close stops the worker first (so no claim is refused by a draining
// server), then the server and the listener.
func (s *stack) close() {
	s.http.closing.Store(true)
	s.stopWorker()
	<-s.workerDone
	s.server.Close()
	s.ts.Close()
}

// roundResult is what one service lifetime measured.
type roundResult struct {
	setups []float64 // seconds per set-up
	opens  []float64 // store-open ms per set-up
	heap   float64   // live heap MiB after fn, service still up
	stats  exp.StoreStats
	fleet  queue.FleetStats
	http   *httpLayer
}

// round runs one service lifetime: reps set-ups, each timed up to
// /healthz answering ok (all but the last torn down at once), then fn
// against the kept service, then the live heap with the service still
// reachable. fresh gives every set-up its own empty store directory
// under dir; otherwise each reopens dir.
func (w *bench) round(ctx context.Context, dir string, reps int, fresh bool, rec *recorder, fn func(*stack) error) (roundResult, error) {
	var rr roundResult
	var s *stack
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close()
		}
		d := dir
		if fresh {
			// The empty directory is made untimed: creating it is file
			// system work, not service set-up, and its latency varies
			// widely with write-back from the previous round's store.
			d = fmt.Sprintf("%s-%d", dir, i)
			if err := os.MkdirAll(d, 0o755); err != nil {
				return rr, err
			}
		}
		// Each set-up starts from a collected heap, so a collection the
		// previous campaign left due does not land inside the timing.
		runtime.GC()
		sp := rec.open("bench.setup", d, 0)
		t0 := time.Now()
		var open time.Duration
		var err error
		s, open, err = startStack(ctx, d, w.chk, rec, sp.id())
		if err != nil {
			return rr, err
		}
		rr.setups = append(rr.setups, time.Since(t0).Seconds())
		sp.close()
		rr.opens = append(rr.opens, ms(open))
	}
	defer s.close()
	if err := fn(s); err != nil {
		return rr, err
	}
	rr.heap = liveHeapMiB()
	rr.stats = s.store.Stats()
	rr.http = s.http
	var err error
	rr.fleet, err = s.client.FleetStats(ctx)
	return rr, err
}
