// Package srv turns internal/exp into a long-running campaign service:
// an HTTP/JSON API that accepts campaigns, executes their points on a
// shared fleet of simulation workers, serves repeated points from a
// persistent size-bounded result store (exp.Store), shares one
// execution among identical points that are live concurrently, streams
// per-point progress over SSE, and renders a plain-HTML results
// browser. Client (client.go) is the matching thin client used by the
// CLIs' -remote flag; because the engine is deterministic and points are
// seeded before submission, remote results are interchangeable with —
// and canonical JSONL streams byte-identical to — local execution.
//
// The lease-based point queue (internal/exp/queue) is the only place
// that tracks live points. A campaign is an ordered list of tickets on
// it: the campaign's executor enqueues every point in campaign order. A
// point whose key is already live joins that task; otherwise one store
// lookup either resolves it or releases it to the pullers, and whichever
// puller claims it first — one of the coordinator's own local sim
// workers, or a remote dragonsrv -worker process pulling over the lease
// API (fleet.go) — runs it. Results are Put to the store before the
// queue delivers them to every attached ticket. Leases expire without
// heartbeats, so a worker can die at any moment: its points requeue with
// backoff and
// the campaign still completes with byte-identical results; points that
// crash enough distinct workers are quarantined instead of retrying
// forever (see the queue package for the full lifecycle). Worker
// (worker.go) is the puller side of the same contract.
//
// API (all JSON unless noted):
//
//	POST /api/v1/campaigns                    submit {name, points:[{series,x,config}]}
//	GET  /api/v1/campaigns                    list campaign statuses
//	GET  /api/v1/campaigns/{id}               one campaign's status
//	GET  /api/v1/campaigns/{id}/events        SSE: replay + live per-point events, then "done"
//	GET  /api/v1/campaigns/{id}/results       finished outcomes (blocks until done)
//	GET  /api/v1/campaigns/{id}/results.jsonl canonical JSONL (blocks until done)
//	POST /api/v1/leases                       claim a batch of points {worker,max,wait_ms}
//	POST /api/v1/leases/{id}/heartbeat        extend a lease (410 once expired)
//	POST /api/v1/leases/{id}/results          submit outcomes (410 discards a zombie's)
//	GET  /api/v1/store                        store occupancy, hit/miss counters, fleet stats
//	GET  /healthz                             "ok" (503 "draining" while shutting down)
//	GET  /                                    HTML browser; /campaigns/{id} per-campaign page
package srv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
	"repro/internal/exp/queue"
)

// ErrDraining is the per-point error of points the server refused to
// start because a graceful shutdown was in progress. In-flight
// simulations still finish and persist; only unstarted points carry it.
var ErrDraining = errors.New("srv: server draining, point not started")

// errAborted is every point's error until its outcome arrives; a forced
// shutdown leaves it on the points it never heard back about.
var errAborted = errors.New("srv: campaign aborted before the point finished")

// maxBodyBytes bounds a campaign submission body.
const maxBodyBytes = 64 << 20

// sseWriteTimeout bounds one SSE event write; a subscriber that stalls
// longer than this is detached.
const sseWriteTimeout = 30 * time.Second

// Config configures a Server.
type Config struct {
	// Store is the shared persistent result store (required).
	Store *exp.Store
	// SimWorkers bounds the coordinator's own concurrently executing
	// simulations (default GOMAXPROCS). Negative disables local
	// execution entirely: the coordinator only dispatches to remote
	// workers — the fleet-only topology.
	SimWorkers int
	// Fleet tunes the lease queue (lease duration, quarantine
	// thresholds, requeue backoff). The zero value gets the queue
	// package's production defaults.
	Fleet queue.Config
	// JSONLDir, when non-empty, makes the server write each campaign's
	// canonical JSONL stream to <dir>/<campaign-id>.jsonl when the
	// campaign finishes, so results survive client disconnects and
	// drains.
	JSONLDir string
	// Log, when non-nil, receives operational log lines.
	Log *log.Logger
}

// Server is the campaign service. Create with New, expose with Handler,
// shut down with Drain.
type Server struct {
	store    *exp.Store
	jsonlDir string
	logger   *log.Logger

	queue   *queue.Queue
	localWG sync.WaitGroup // local puller goroutines

	draining  atomic.Bool
	runCtx    context.Context // canceled only when a drain deadline forces abort
	runCancel context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string // submission order, for listings
	nextID    int
	wg        sync.WaitGroup // running campaign executors

	// runSim executes one simulation; tests stub it to control timing.
	runSim func(ctx context.Context, cfg dragonfly.Config) (dragonfly.Result, error)
}

// New creates a Server. The JSONL directory, when configured, is
// created if needed.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("srv: Config.Store is required")
	}
	workers := cfg.SimWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 0 {
		workers = 0 // fleet-only: no local pullers
	}
	if cfg.JSONLDir != "" {
		if err := os.MkdirAll(cfg.JSONLDir, 0o755); err != nil {
			return nil, fmt.Errorf("srv: jsonl dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:     cfg.Store,
		jsonlDir:  cfg.JSONLDir,
		logger:    cfg.Log,
		queue:     queue.New(cfg.Fleet),
		runCtx:    ctx,
		runCancel: cancel,
		campaigns: make(map[string]*campaign),
		runSim: func(ctx context.Context, cfg dragonfly.Config) (dragonfly.Result, error) {
			return dragonfly.RunContext(ctx, cfg)
		},
	}
	for i := 0; i < workers; i++ {
		s.localWG.Add(1)
		go s.localPuller()
	}
	return s, nil
}

// localPuller is one of the coordinator's own simulation workers: it
// claims points off the same queue remote workers pull from, so local
// capacity and the fleet share one dispatch order and never duplicate
// work. Local leases do not expire — the holder cannot outlive the
// queue — so no heartbeats are needed.
func (s *Server) localPuller() {
	defer s.localWG.Done()
	for {
		l, err := s.queue.WaitClaim(s.runCtx, "local", 1, time.Hour, true)
		if err != nil {
			return // draining or shut down
		}
		if l == nil {
			continue
		}
		for _, t := range l.Tasks {
			res, err := s.runSim(s.runCtx, t.Config)
			s.queue.Complete(l.ID, t.ID, queue.Outcome{Result: res, Err: err}, s.persist) //nolint:errcheck // local leases cannot expire
		}
	}
}

// persist is the coordinator's one completion path, shared by the
// local pullers and the lease results endpoint: the queue calls it
// before delivering an accepted outcome, so a successful result is in
// the store before its key stops being live.
func (s *Server) persist(t queue.Task, out queue.Outcome) {
	if out.Err != nil {
		return
	}
	if err := s.store.Put(t.Key, t.Config, out.Result); err != nil {
		// The result stands; a broken store surfaces in the log.
		s.logf("store put %s: %v", t.Key[:12], err)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// Drain gracefully shuts the execution side down: new submissions are
// rejected with 503, no new leases are issued (remote claims get 503,
// local pullers stop), queued points that have not started simulating
// fail with ErrDraining, and in-flight work — local simulations and
// points leased to remote workers — is collected: workers can still
// heartbeat and submit, and results persist to the store. A leased
// point whose worker dies during the drain fails with ErrDraining when
// its lease expires instead of requeueing. Drain returns when every
// accepted campaign has finished, or — if ctx expires first — aborts
// the remaining simulations and returns ctx's error. Safe to call once;
// the HTTP listener itself is the caller's to close afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Drain(ErrDraining)
	// Barrier: a submission that passed the draining check while holding
	// s.mu has already registered with wg by the time we acquire it.
	s.mu.Lock()
	n := len(s.order)
	s.mu.Unlock()
	s.logf("draining: waiting on campaigns (%d accepted total)", n)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.runCancel() // in-flight simulations abort at their next cycle check
		<-done
		err = ctx.Err()
	}
	s.runCancel()
	s.localWG.Wait()
	s.queue.Close()
	return err
}

// Close aborts everything immediately: a drain whose deadline has
// already passed. Tests use it; production drains.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx) //nolint:errcheck // the abort is the point
}

// campaign is one accepted campaign and its execution state.
type campaign struct {
	id      string
	name    string
	created time.Time

	mu   sync.Mutex
	cond *sync.Cond // broadcast on every finished point and on finish

	// outs holds every point in campaign order: Index and Point are set
	// at submission, the rest when the point finishes. order lists the
	// finished indices in completion order, for SSE replay.
	outs     []exp.Outcome
	order    []int
	executed int // simulations this campaign ran
	fromStore,
	deduped int
	finished bool
	errMsg   string // campaign-level error, if any
}

// Status is a campaign status snapshot, as served by the API.
type Status struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Created   time.Time `json:"created"`
	Total     int       `json:"total"`
	Done      int       `json:"done"`
	Executed  int       `json:"executed"`   // simulations run for this campaign
	FromStore int       `json:"from_store"` // points served from the persistent store
	Deduped   int       `json:"deduped"`    // points that joined a live identical point's execution
	Finished  bool      `json:"finished"`
	Error     string    `json:"error,omitempty"`
}

func (c *campaign) statusLocked() Status {
	return Status{
		ID:        c.id,
		Name:      c.name,
		Created:   c.created,
		Total:     len(c.outs),
		Done:      len(c.order),
		Executed:  c.executed,
		FromStore: c.fromStore,
		Deduped:   c.deduped,
		Finished:  c.finished,
		Error:     c.errMsg,
	}
}

func (c *campaign) status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked()
}

// source is how a campaign's point was resolved when it was enqueued.
type source int

const (
	queued source = iota // released to the pullers
	joined               // attached to a live identical point
	stored               // served from the store
)

// record stores one point's outcome and wakes SSE streams. Seconds
// runs from the campaign's start to the outcome, queue wait included.
func (c *campaign) record(d queue.Delivery, how source, elapsed time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := &c.outs[d.Tag]
	o.Result, o.Err, o.Seconds = d.Result, d.Err, elapsed.Seconds()
	switch {
	case how == stored:
		c.fromStore++
		o.Cached = true
	case how == joined:
		if d.Err == nil {
			c.deduped++
			o.Cached = true
		}
	case !errors.Is(d.Err, ErrDraining): // drained points never started
		c.executed++
	}
	c.order = append(c.order, d.Tag)
	c.cond.Broadcast()
}

// finish publishes the campaign's end and wakes everyone waiting.
func (c *campaign) finish(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.errMsg = err.Error()
	}
	c.finished = true
	c.cond.Broadcast()
}

// waitFinished blocks until the campaign finished or ctx expired.
func (c *campaign) waitFinished(ctx context.Context) ([]exp.Outcome, bool) {
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.finished {
		if ctx.Err() != nil {
			return nil, false
		}
		c.cond.Wait()
	}
	return c.outs, true
}

// start launches the campaign executor. It enqueues every point in
// campaign order: a point that joins a live identical one waits for its
// outcome; otherwise one store lookup resolves the new task or releases
// it to the pullers. It then records outcomes as they arrive, finishes
// the campaign and writes the JSONL mirror. Only a forced abort
// (runCtx) finishes it before every outcome is in.
func (s *Server) start(c *campaign) {
	go func() {
		defer s.wg.Done()
		begin := time.Now()
		// One delivery per ticket, so the queue never blocks sending.
		done := make(chan queue.Delivery, len(c.outs))
		how := make([]source, len(c.outs))
		for i := range c.outs {
			cfg := c.outs[i].Point.Config
			key := s.store.Key(cfg)
			tk, err := s.queue.Enqueue(key, cfg, i, done)
			switch {
			case err != nil: // draining
				done <- queue.Delivery{Tag: i, Outcome: queue.Outcome{Err: err}}
			case tk.Joined:
				how[i] = joined
			default:
				if res, ok := s.store.Get(key); ok {
					how[i] = stored
					s.queue.Resolve(tk, queue.Outcome{Result: res})
				} else {
					s.queue.Release(tk)
				}
			}
		}
		var err error
	collect:
		for range c.outs {
			select {
			case d := <-done:
				c.record(d, how[d.Tag], time.Since(begin))
			case <-s.runCtx.Done():
				err = s.runCtx.Err()
				break collect
			}
		}
		c.finish(err)
		// outs no longer change, so the mirror reads them unlocked.
		if s.jsonlDir != "" {
			if err := s.writeMirror(c); err != nil {
				s.logf("campaign %s: jsonl mirror: %v", c.id, err)
			}
		}
		st := c.status()
		s.logf("campaign %s (%s) finished: %d points, %d simulated, %d from store, %d deduped",
			c.id, c.name, st.Total, st.Executed, st.FromStore, st.Deduped)
	}()
}

// writeMirror writes the campaign's canonical JSONL to the mirror
// directory.
func (s *Server) writeMirror(c *campaign) error {
	f, err := os.Create(filepath.Join(s.jsonlDir, c.id+".jsonl"))
	if err != nil {
		return err
	}
	if err := exp.WriteCanonical(f, c.outs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// submit registers and starts a campaign of unfinished outcomes (see
// errAborted). Returns nil while draining.
func (s *Server) submit(name string, outs []exp.Outcome) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil
	}
	s.nextID++
	c := &campaign{
		id:      fmt.Sprintf("c%04d", s.nextID),
		name:    name,
		created: time.Now().UTC(),
		outs:    outs,
	}
	c.cond = sync.NewCond(&c.mu)
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.wg.Add(1) // inside s.mu: pairs with the barrier in Drain
	s.start(c)
	return c
}

func (s *Server) campaign(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/results.jsonl", s.handleResultsJSONL)
	mux.HandleFunc("POST /api/v1/leases", s.handleClaim)
	mux.HandleFunc("POST /api/v1/leases/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /api/v1/leases/{id}/results", s.handleLeaseResults)
	mux.HandleFunc("GET /api/v1/store", s.handleStore)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /campaigns/{id}", s.handleCampaignPage)
	return mux
}

// Wire types. exp.Point carries no JSON tags, so the API defines its
// own lower-case layout, matching Record's field names.

type wirePoint struct {
	Series string           `json:"series"`
	X      float64          `json:"x"`
	Config dragonfly.Config `json:"config"`
}

type submitRequest struct {
	Name   string      `json:"name"`
	Points []wirePoint `json:"points"`
}

type submitResponse struct {
	ID    string `json:"id"`
	Total int    `json:"total"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req submitRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode campaign: %v", err)
		return
	}
	if len(req.Points) == 0 {
		httpError(w, http.StatusBadRequest, "campaign has no points")
		return
	}
	outs := make([]exp.Outcome, len(req.Points))
	for i, wp := range req.Points {
		if err := wp.Config.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, "point %d: %v", i, err)
			return
		}
		outs[i] = exp.Outcome{Index: i, Point: exp.Point{Series: wp.Series, X: wp.X, Config: wp.Config}, Err: errAborted}
	}
	c := s.submit(req.Name, outs)
	if c == nil {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.logf("campaign %s (%s): accepted, %d points", c.id, c.name, len(outs))
	writeJSON(w, http.StatusCreated, submitResponse{ID: c.id, Total: len(outs)})
}

// statuses lists every campaign's status in submission order.
func (s *Server) statuses() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	sts := make([]Status, len(s.order))
	for i, id := range s.order {
		sts[i] = s.campaigns[id].status()
	}
	return sts
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statuses())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}

// handleEvents streams SSE: every already-recorded point is replayed
// first (so reconnecting clients can resume idempotently by index),
// then live events, then one "done" event carrying the final status.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ctx := r.Context()
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()

	// Bound every event write so a wedged subscriber (accepted the TCP
	// connection, never reads) detaches promptly instead of pinning this
	// handler — and the campaign's broadcast fan-out — forever.
	rc := http.NewResponseController(w)
	emit := func(event string, v any) error {
		rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)) //nolint:errcheck // unsupported transport: fall back to unbounded writes
		if err := writeEvent(w, event, v); err != nil {
			return err
		}
		fl.Flush()
		return nil
	}

	next := 0
	c.mu.Lock()
	for {
		for next < len(c.order) {
			rec := exp.RecordOf(&c.outs[c.order[next]], false)
			next++
			c.mu.Unlock()
			if err := emit("point", rec); err != nil {
				return
			}
			c.mu.Lock()
		}
		if c.finished {
			break
		}
		if ctx.Err() != nil {
			c.mu.Unlock()
			return
		}
		c.cond.Wait()
	}
	st := c.statusLocked()
	c.mu.Unlock()
	emit("done", st) //nolint:errcheck // stream is ending either way
}

func writeEvent(w io.Writer, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	outs, ok := c.waitFinished(r.Context())
	if !ok {
		return // client went away
	}
	recs := make([]exp.Record, len(outs))
	for i := range outs {
		recs[i] = exp.RecordOf(&outs[i], false)
	}
	writeJSON(w, http.StatusOK, recs)
}

func (s *Server) handleResultsJSONL(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	outs, ok := c.waitFinished(r.Context())
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	exp.WriteCanonical(w, outs) //nolint:errcheck // client went away
}

// storeResponse is GET /api/v1/store's payload: the store counters
// (inline, for pre-fleet clients) plus the fleet snapshot.
type storeResponse struct {
	exp.StoreStats
	Fleet queue.FleetStats `json:"fleet"`
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, storeResponse{
		StoreStats: s.store.Stats(),
		Fleet:      s.queue.Stats(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n") //nolint:errcheck
		return
	}
	io.WriteString(w, "ok\n") //nolint:errcheck
}
