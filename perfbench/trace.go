package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp/srv"
)

// span is one timed call across a layer boundary. Name is
// "<layer>.<operation>"; Trace is the campaign name, point name or lease
// id the call served; Parent is the id of the span that caused it (0 for
// a root). Times are nanoseconds since the recorder was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op, so call sites need no
// branches.
type recorder struct {
	epoch time.Time
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
	roots map[string]int64 // trace id -> span that owns it (client side)
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), roots: make(map[string]int64)}
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	r *recorder
	s span
}

// open starts a span now.
func (r *recorder) open(name, trace string, parent int64) openSpan {
	if r == nil {
		return openSpan{}
	}
	return openSpan{r: r, s: span{
		ID: r.next.Add(1), Parent: parent, Name: name, Trace: trace,
		Start: time.Since(r.epoch).Nanoseconds(),
	}}
}

// id is the span's id, for children; 0 when untraced.
func (o openSpan) id() int64 { return o.s.ID }

// close ends the span now and keeps it.
func (o openSpan) close() {
	if o.r == nil {
		return
	}
	o.s.End = time.Since(o.r.epoch).Nanoseconds()
	o.r.keep(o.s)
}

// add records a span whose interval the caller already measured.
func (r *recorder) add(name, trace string, parent int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.keep(span{
		ID: r.next.Add(1), Parent: parent, Name: name, Trace: trace,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
}

func (r *recorder) keep(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// own registers spanID as the parent of server-side spans for trace.
func (r *recorder) own(trace string, spanID int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.roots[trace] = spanID
	r.mu.Unlock()
}

func (r *recorder) owner(trace string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.roots[trace]
}

// layers lists the layers self time is reported for, in report order.
var layers = []string{"bench", "client", "srv", "queue", "exp", "dragonfly", "engine", "topology", "core"}

// selfTimes returns, per layer, the summed self time of its spans in
// seconds: each span's duration minus the part of it that its children
// cover. Children may run concurrently (server handlers under a client
// call), so their intervals are merged before subtracting.
func (r *recorder) selfTimes() map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kids := make(map[int64][][2]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range r.spans {
		self := s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(self) / 1e9
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// httpLayer wraps Server.Handler. It always counts requests and checks
// that each answered 2xx; when traced it also records one span per
// request, per-route latencies and the lease grants the fleet worker
// received. Campaign and lease ids are collapsed into route names.
type httpLayer struct {
	next http.Handler
	chk  *checker
	rec  *recorder

	requests atomic.Int64
	non2xx   atomic.Int64
	closing  atomic.Bool // set before shutdown: later answers are not checked

	mu     sync.Mutex
	lat    map[string][]float64 // route -> seconds
	names  map[string]string    // campaign id -> campaign name
	claims int64                // claim requests
	leases int64                // claims that returned a lease
	leased int64                // points handed out in those leases
}

func newHTTPLayer(next http.Handler, chk *checker, rec *recorder) *httpLayer {
	return &httpLayer{next: next, chk: chk, rec: rec, lat: make(map[string][]float64), names: make(map[string]string)}
}

// routes maps the server's mux patterns to short route names.
var routes = map[string]string{
	"POST /api/v1/campaigns":                   "submit",
	"GET /api/v1/campaigns":                    "list",
	"GET /api/v1/campaigns/{id}":               "status",
	"GET /api/v1/campaigns/{id}/events":        "stream",
	"GET /api/v1/campaigns/{id}/results":       "results",
	"GET /api/v1/campaigns/{id}/results.jsonl": "results_jsonl",
	"POST /api/v1/leases":                      "claim",
	"POST /api/v1/leases/{id}/heartbeat":       "heartbeat",
	"POST /api/v1/leases/{id}/results":         "results_post",
	"GET /api/v1/store":                        "store",
	"GET /healthz":                             "healthz",
}

func (h *httpLayer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	var name string
	if h.rec != nil && r.Method == http.MethodPost {
		switch {
		case r.URL.Path == "/api/v1/campaigns":
			name = peekName(r)
			sw.body = new(bytes.Buffer)
		case r.URL.Path == "/api/v1/leases":
			sw.body = new(bytes.Buffer)
		}
	}
	start := time.Now()
	h.next.ServeHTTP(sw, r)
	end := time.Now()

	status := sw.status
	if status == 0 {
		status = http.StatusOK // handler wrote nothing; net/http answers 200
	}
	if h.closing.Load() {
		return // the benchmark is tearing the service down; a 503 is expected
	}
	h.requests.Add(1)
	if !h.chk.check(status/100 == 2, "%s %s: HTTP %d", r.Method, r.URL.Path, status) {
		h.non2xx.Add(1)
	}
	if h.rec == nil {
		return
	}
	route, ok := routes[r.Pattern]
	if !ok {
		route = "other"
	}
	trace := r.PathValue("id")
	h.mu.Lock()
	h.lat[route] = append(h.lat[route], end.Sub(start).Seconds())
	switch route {
	case "submit":
		var resp struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(sw.body.Bytes(), &resp) == nil && resp.ID != "" {
			h.names[resp.ID] = name
		}
		trace = name
	case "stream", "results", "results_jsonl", "status":
		trace = h.names[trace]
	case "claim":
		var g srv.LeaseGrant
		h.claims++
		if json.Unmarshal(sw.body.Bytes(), &g) == nil && g.ID != "" {
			h.leases++
			h.leased += int64(len(g.Points))
			trace = g.ID
		}
	}
	h.mu.Unlock()
	var parent int64
	if route != "claim" && route != "heartbeat" && route != "results_post" {
		parent = h.rec.owner(trace)
	}
	layer := "srv."
	if route == "claim" {
		layer = "queue."
	}
	h.rec.add(layer+route, trace, parent, start, end)
}

// latency returns the median latency of a route in seconds.
func (h *httpLayer) latency(route string) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.lat[route])
}

// routeTable summarizes every route seen, for the report file.
func (h *httpLayer) routeTable() map[string]map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]map[string]float64, len(h.lat))
	for route, xs := range h.lat {
		out[route] = map[string]float64{"count": float64(len(xs)), "p50_ms": median(xs) * 1e3, "tail_ms": tail(xs) * 1e3}
	}
	return out
}

// peekName reads the campaign name from a submission body and restores
// the body for the real handler. The client encodes the name first.
func peekName(r *http.Request) string {
	buf, err := io.ReadAll(r.Body)
	r.Body.Close()
	r.Body = io.NopCloser(bytes.NewReader(buf))
	if err != nil {
		return ""
	}
	const prefix = `{"name":"`
	rest, ok := bytes.CutPrefix(buf, []byte(prefix))
	if !ok {
		return ""
	}
	name, _, _ := bytes.Cut(rest, []byte(`"`))
	return string(name)
}

// statusWriter records the response status and, when body is set, a copy
// of the response body. It passes Flush and Unwrap through so the
// server's SSE stream and write deadlines keep working.
type statusWriter struct {
	http.ResponseWriter
	status int
	body   *bytes.Buffer
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.body != nil {
		w.body.Write(b)
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
