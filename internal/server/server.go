// Package server is leakd's core: the HTTP/JSON front end over a
// content-addressed result store. Sweeps are submitted as cell sets,
// admitted into a bounded dual-priority queue (interactive requests
// overtake bulk sweeps) and handed to an Executor: by default this
// process's harness worker pool with per-sweep checkpoints, or in cluster
// mode a ring-sharded fleet of workers. Either way the cells resolve
// through the store first, so repeated or overlapping sweeps simulate
// only the delta, and progress streams out over SSE as the harness's own
// trace events.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"hotleakage/internal/harness"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/obs"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
	"hotleakage/internal/stream"

	"context"
)

var (
	obsQueueDepth      = obs.Default.Gauge(obs.GaugeQueueDepth)
	obsSweepsInFlight  = obs.Default.Gauge(obs.GaugeSweepsInFlight)
	obsSweepsAccepted  = obs.Default.Counter(obs.MetricSweepsAccepted)
	obsSweepsRejected  = obs.Default.Counter(obs.MetricSweepsRejected)
	obsSweepsCompleted = obs.Default.Counter(obs.MetricSweepsCompleted)
	obsSweepsDegraded  = obs.Default.Counter(obs.MetricSweepsDegraded)
	obsServerPanics    = obs.Default.Counter(obs.MetricServerPanics)
	obsWatchdogFired   = obs.Default.Counter(obs.MetricWatchdogTimeouts)
	obsSweepsEvicted   = obs.Default.Counter(obs.MetricSweepsEvicted)
)

// Config parameterizes a daemon. Store is required; everything else has a
// serviceable default.
type Config struct {
	// Store is the content-addressed result store backing the daemon.
	Store *store.Store
	// Executor resolves admitted sweeps (nil = the in-process executor
	// over this process's harness, configured by Workers, RunTimeout,
	// MaxRetries and Peer; those four fields apply to it alone).
	Executor Executor
	// Workers sizes each sweep's harness pool (0 = GOMAXPROCS).
	Workers int
	// QueueDepth caps each priority class's wait queue (default 16);
	// submissions beyond it are rejected with 429 + Retry-After.
	QueueDepth int
	// SweepConcurrency is how many sweeps execute at once (default 1; the
	// executor already parallelizes within a sweep).
	SweepConcurrency int
	// MaxCells caps cells per sweep (default 4096); larger requests are 400s.
	MaxCells int
	// DefaultInstructions/DefaultWarmup fill zero-valued requests
	// (defaults 1M/300K, the reduced-scale paper budget). A coordinator
	// and its workers must agree on them so content addresses agree.
	DefaultInstructions uint64
	DefaultWarmup       uint64
	// RunTimeout and MaxRetries pass through to the harness per run.
	RunTimeout time.Duration
	MaxRetries int
	// SweepTimeout is the watchdog: a sweep running longer than this is
	// canceled and marked failed (0 = no watchdog). The cancellation
	// propagates through the executor, so in-flight cells drain and
	// completed cells stay stored.
	SweepTimeout time.Duration
	// Plane, when non-nil, injects faults into request handling (the
	// server.handler site) and sweep execution (server.sweep) — chaos
	// testing only.
	Plane *faultinject.Plane
	// RetryAfter is the backoff hint attached to 429s (default 5s).
	RetryAfter time.Duration
	// Retention bounds how long terminal sweeps stay queryable: a sweep
	// is evicted from the in-memory maps this long after it finished
	// (0 = keep forever, the pre-retention behaviour). Without it the
	// sweeps/byHash maps grow without bound under sustained distinct
	// traffic. The content-addressed store is unaffected — evicted
	// results remain servable by /v1/cells/{hash}.
	Retention time.Duration
	// Peer, when non-nil, is the federated-store read path: a cell that
	// misses the local store is fetched from the peer (normally the
	// cluster coordinator) before being simulated, and a peer hit is
	// persisted locally. See sim.Experiments.Peer.
	Peer sim.CellFetcher
	// Events, when non-nil, additionally receives every sweep's trace
	// events (e.g. an obs.TraceWriter for on-disk telemetry).
	Events harness.EventSink
	// Log receives operational lines; nil discards them.
	Log *log.Logger
}

// Server is the daemon. Build with New, mount Handler, stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	interactive chan *Job
	bulk        chan *Job

	rootCtx    context.Context
	rootCancel context.CancelFunc
	stop       chan struct{}
	wg         sync.WaitGroup

	mu       sync.Mutex
	draining bool
	seq      int
	sweeps   map[string]*Job
	byHash   map[string]*Job // request hash -> most recent sweep
	// degraded holds deduplicated reasons the daemon is limping (store
	// trouble on otherwise-successful sweeps, isolated panics, worker
	// deaths); /healthz reports them under status "degraded".
	degraded []string
}

// New builds a daemon over cfg and starts its executors. The caller mounts
// Handler() on an http.Server (obs.HardenedServer) and must eventually call
// Shutdown.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	s := newServer(cfg)
	s.startExecutors()
	return s, nil
}

// withDefaults fills zero-valued knobs.
func withDefaults(cfg Config) Config {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.SweepConcurrency <= 0 {
		cfg.SweepConcurrency = 1
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 4096
	}
	if cfg.DefaultInstructions == 0 {
		cfg.DefaultInstructions = 1_000_000
	}
	if cfg.DefaultWarmup == 0 {
		cfg.DefaultWarmup = 300_000
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 5 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = log.New(os.Stderr, "", 0)
		cfg.Log.SetOutput(discard{})
	}
	if cfg.Executor == nil {
		cfg.Executor = &inProcess{cfg: cfg, traces: sim.NewTraceCache("")}
	}
	return cfg
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// newServer builds the daemon without starting executors; in-package tests
// use the paused form to exercise admission control deterministically.
func newServer(cfg Config) *Server {
	cfg = withDefaults(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		interactive: make(chan *Job, cfg.QueueDepth),
		bulk:        make(chan *Job, cfg.QueueDepth),
		rootCtx:     ctx,
		rootCancel:  cancel,
		stop:        make(chan struct{}),
		sweeps:      make(map[string]*Job),
		byHash:      make(map[string]*Job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cells/{hash}", s.handleCell)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.Default.WriteProm(w)
	})
	s.mux = mux
	return s
}

func (s *Server) startExecutors() {
	s.wg.Add(s.cfg.SweepConcurrency)
	for i := 0; i < s.cfg.SweepConcurrency; i++ {
		go s.executor()
	}
	if s.cfg.Retention > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
}

// janitor periodically evicts terminal sweeps older than the retention
// window so sustained distinct traffic cannot grow the sweep maps without
// bound. It stops with the executors on drain.
func (s *Server) janitor() {
	defer s.wg.Done()
	period := s.cfg.Retention / 4
	if period < time.Second {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.evictExpired(time.Now())
		}
	}
}

// evictExpired drops terminal sweeps that finished more than Retention
// ago from the lookup maps. The byHash alias entry goes with the sweep —
// but only if it still points at this sweep, so a newer identical request
// that re-aliased the hash is never evicted early. Non-terminal sweeps
// are never touched, which keeps in-flight aliasing correct right up to
// eviction. Returns how many sweeps were evicted.
func (s *Server) evictExpired(now time.Time) int {
	cutoff := now.Add(-s.cfg.Retention)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, sw := range s.sweeps {
		sw.mu.Lock()
		expired := api.Terminal(sw.state) && !sw.finished.IsZero() && sw.finished.Before(cutoff)
		sw.mu.Unlock()
		if !expired {
			continue
		}
		delete(s.sweeps, id)
		if s.byHash[sw.ReqHash] == sw {
			delete(s.byHash, sw.ReqHash)
		}
		n++
	}
	if n > 0 {
		obsSweepsEvicted.Add(uint64(n))
	}
	return n
}

// Handler returns the daemon's routes wrapped in per-request panic
// isolation (a handler panic 500s that request — counted and logged —
// instead of killing the daemon) and, when Config.Plane is set, the
// server.handler fault-injection site.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				obsServerPanics.Add(1)
				s.noteDegraded(fmt.Sprintf("handler panic (%s %s)", r.Method, r.URL.Path))
				s.cfg.Log.Printf("leakd: panic in %s %s (isolated): %v\n%s",
					r.Method, r.URL.Path, p, debug.Stack())
				// Best effort: if the handler already wrote headers this is
				// a no-op on the status line, but the connection still ends.
				httpError(w, http.StatusInternalServerError, "internal error (request isolated)")
			}
		}()
		if s.cfg.Plane != nil {
			d := s.cfg.Plane.Decide(faultinject.SiteServerHandler)
			switch d.Fault {
			case faultinject.OpSlow:
				time.Sleep(d.Delay)
			case faultinject.OpPanic:
				panic("faultinject: injected panic at " + faultinject.SiteServerHandler)
			case faultinject.Op5xx, faultinject.OpErr, faultinject.OpReset, faultinject.OpShort:
				httpError(w, http.StatusBadGateway, "injected fault")
				return
			}
		}
		s.mux.ServeHTTP(w, r)
	})
}

// executor pulls sweeps off the queues, interactive first: a ready
// interactive sweep always overtakes a waiting bulk one.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		var sw *Job
		select {
		case sw = <-s.interactive:
		default:
			select {
			case <-s.stop:
				return
			case sw = <-s.interactive:
			case sw = <-s.bulk:
			}
		}
		obsQueueDepth.Add(-1)
		s.runIsolated(sw)
	}
}

// runIsolated executes one sweep with panic isolation: a panic escaping
// the executor (or injected by the chaos plane) fails that sweep, not the
// executor goroutine — the daemon keeps serving.
func (s *Server) runIsolated(sw *Job) {
	defer func() {
		if p := recover(); p != nil {
			obsServerPanics.Add(1)
			s.noteDegraded("sweep executor panic")
			s.cfg.Log.Printf("leakd: panic in sweep %s (isolated): %v\n%s", sw.ID, p, debug.Stack())
			s.finish(sw, api.StateFailed, fmt.Sprintf("sweep panicked: %v", p), "")
		}
	}()
	s.execute(sw)
}

// noteDegraded records a deduplicated degradation reason for /healthz.
func (s *Server) noteDegraded(reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.degraded {
		if r == reason {
			return
		}
	}
	if len(s.degraded) < 16 {
		s.degraded = append(s.degraded, reason)
	}
}

// execute runs one sweep through the executor to a terminal state.
func (s *Server) execute(sw *Job) {
	obsSweepsInFlight.Add(1)
	defer obsSweepsInFlight.Add(-1)
	defer sw.cancel()

	// Chaos: the server.sweep site fires inside the executor, past the
	// dequeue accounting, so an injected panic exercises the same
	// isolation path an executor-escaping bug would.
	if s.cfg.Plane != nil {
		d := s.cfg.Plane.Decide(faultinject.SiteServerSweep)
		switch d.Fault {
		case faultinject.OpSlow:
			time.Sleep(d.Delay)
		case faultinject.OpPanic:
			panic("faultinject: injected panic at " + faultinject.SiteServerSweep)
		}
	}

	// The watchdog bounds the whole sweep; its cancellation propagates
	// through the executor exactly like a drain (in-flight cells stop,
	// completed cells are already durable).
	runCtx := sw.ctx
	if s.cfg.SweepTimeout > 0 {
		var wcancel context.CancelFunc
		runCtx, wcancel = context.WithTimeout(sw.ctx, s.cfg.SweepTimeout)
		defer wcancel()
	}

	sw.mu.Lock()
	sw.state = api.StateRunning
	sw.started = time.Now()
	sw.mu.Unlock()
	sw.hub.Write(obs.Record{Type: "sweep_start", RunID: sw.ID, Detail: sw.ReqHash})
	s.cfg.Log.Printf("leakd: sweep %s running (%d cells, %s)", sw.ID, len(sw.Cells), sw.Priority)

	degraded, runErr := s.cfg.Executor.Run(runCtx, sw)

	// The watchdog fired iff the run context died while the sweep's own
	// context (drain, client deadline) is still alive.
	watchdogFired := runCtx.Err() != nil && sw.ctx.Err() == nil

	failed := 0
	for i := range sw.Cells {
		if sw.Outcome(i).State == "failed" {
			failed++
		}
	}
	state := api.StateCompleted
	var msg string
	switch {
	case (runErr != nil || failed > 0) && watchdogFired:
		state = api.StateFailed
		msg = fmt.Sprintf("sweep watchdog timeout after %s", s.cfg.SweepTimeout)
		obsWatchdogFired.Add(1)
	case runErr != nil && sw.ctx.Err() != nil:
		state, msg = api.StateCanceled, sw.ctx.Err().Error()
	case runErr != nil:
		state, msg = api.StateFailed, runErr.Error()
	case failed > 0 && sw.ctx.Err() != nil:
		// No run error, but cells were cut short by the drain or
		// deadline: the sweep is canceled, not completed.
		state, msg = api.StateCanceled, sw.ctx.Err().Error()
	}
	if state != api.StateCompleted {
		degraded = ""
	} else if degraded != "" {
		obsSweepsDegraded.Add(1)
	}

	s.finish(sw, state, msg, degraded)
	obsSweepsCompleted.Add(1)
	sw.mu.Lock()
	t := sw.tally
	sw.mu.Unlock()
	s.cfg.Log.Printf("leakd: sweep %s %s (executed=%d store_hits=%d resumed=%d failed=%d degraded=%q)",
		sw.ID, state, t.Executed, t.StoreHits, t.Resumed, failed, degraded)
}

// finish moves a sweep to a terminal state, folds its live tally and ends
// its event stream. The state is set before the hub closes, so a client
// that sees the stream end and then asks for the status sees it terminal.
func (s *Server) finish(sw *Job, state, msg, degraded string) {
	sw.cancel()
	var last Tally
	if live := sw.liveTally(); live != nil {
		last = live()
	}
	sw.mu.Lock()
	sw.tally, sw.live = sw.tally.add(last), nil
	sw.state = state
	sw.finished = time.Now()
	sw.errMsg = msg
	sw.degradedMsg = degraded
	sw.mu.Unlock()
	sw.hub.Write(obs.Record{Type: "sweep_" + state, RunID: sw.ID, Error: msg})
	sw.hub.Close()
}

// Shutdown drains the daemon: new submissions get 503, queued sweeps are
// canceled, running sweeps get their contexts canceled (in-flight cells
// drain; completed cells are already stored), and the executors exit. It
// blocks until the drain finishes or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		close(s.stop)
	}

	// Empty the queues; executors racing us just run the sweep with an
	// already-canceled context, which lands in the same canceled state.
	for drained := false; !drained; {
		select {
		case sw := <-s.interactive:
			obsQueueDepth.Add(-1)
			s.finish(sw, api.StateCanceled, "daemon draining", "")
		case sw := <-s.bulk:
			obsQueueDepth.Add(-1)
			s.finish(sw, api.StateCanceled, "daemon draining", "")
		default:
			drained = true
		}
	}
	s.rootCancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain timed out: %w", ctx.Err())
	}
}

// ---- request admission ----

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if req.Instructions == 0 {
		req.Instructions = s.cfg.DefaultInstructions
	}
	if req.Warmup == 0 {
		req.Warmup = s.cfg.DefaultWarmup
	}
	specs, attacks, wire, err := api.ExpandCells(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	total := len(wire)
	if total == 0 {
		httpError(w, http.StatusBadRequest, "sweep has no cells")
		return
	}
	if total > s.cfg.MaxCells {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("sweep has %d cells, limit is %d", total, s.cfg.MaxCells))
		return
	}
	priority := req.Priority
	switch priority {
	case "interactive", "bulk":
	case "":
		if total <= 2 {
			priority = "interactive"
		} else {
			priority = "bulk"
		}
	default:
		httpError(w, http.StatusBadRequest, `priority must be "interactive" or "bulk"`)
		return
	}
	reqHash, err := api.RequestHash(req.Instructions, req.Warmup, wire)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "hash request: "+err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		obsSweepsRejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	// Identical non-terminal request: alias onto the in-flight sweep
	// instead of queueing duplicate work.
	if prev := s.byHash[reqHash]; prev != nil {
		prev.mu.Lock()
		terminal := api.Terminal(prev.state)
		prev.mu.Unlock()
		if !terminal {
			s.mu.Unlock()
			respondJSON(w, http.StatusOK, s.status(prev, false))
			return
		}
	}
	s.seq++
	var ctx context.Context
	var cancel context.CancelFunc
	if req.TimeoutS > 0 {
		ctx, cancel = context.WithTimeout(s.rootCtx, time.Duration(req.TimeoutS*float64(time.Second)))
	} else {
		ctx, cancel = context.WithCancel(s.rootCtx)
	}
	sw := &Job{
		ID:           fmt.Sprintf("s-%06d", s.seq),
		ReqHash:      reqHash,
		Priority:     priority,
		Instructions: req.Instructions,
		Warmup:       req.Warmup,
		Cells:        wire,
		Specs:        specs,
		Attacks:      attacks,
		Store:        s.cfg.Store,
		srv:          s,
		ctx:          ctx,
		cancel:       cancel,
		hub:          stream.NewHub(),
		state:        api.StateQueued,
		created:      time.Now(),
		outcomes:     make([]api.CellStatus, total),
	}
	sw.Events = multiSink{sw.hub, s.cfg.Events}
	for i, c := range wire {
		sw.outcomes[i] = api.CellStatus{Cell: c, State: "pending"}
	}
	q := s.bulk
	if priority == "interactive" {
		q = s.interactive
	}
	// The gauge goes up before the enqueue: an executor that dequeues the
	// sweep immediately decrements a count that already includes it, so
	// the load signal never dips below zero. A rejected submit takes the
	// increment back.
	obsQueueDepth.Add(1)
	select {
	case q <- sw:
	default:
		s.mu.Unlock()
		obsQueueDepth.Add(-1)
		cancel()
		obsSweepsRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(api.RetryAfterSeconds(s.cfg.RetryAfter)))
		httpError(w, http.StatusTooManyRequests, priority+" queue is full")
		return
	}
	s.sweeps[sw.ID] = sw
	s.byHash[reqHash] = sw
	s.mu.Unlock()
	obsSweepsAccepted.Add(1)
	respondJSON(w, http.StatusAccepted, s.status(sw, false))
}

// ---- status ----

// status snapshots a sweep for the wire. Cell-level detail is included
// only when withCells (the per-sweep GET), not on submit responses. A
// cell's failure shows only once the sweep is terminal: until then an
// executor may still re-dispatch and produce it.
func (s *Server) status(sw *Job, withCells bool) api.SweepStatus {
	live := sw.liveTally()
	var running Tally
	if live != nil {
		running = live()
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	terminal := api.Terminal(sw.state)
	st := api.SweepStatus{
		ID:       sw.ID,
		State:    sw.state,
		Priority: sw.Priority,
		Created:  sw.created,
		Total:    len(sw.Cells),
		Error:    sw.errMsg,
		Degraded: sw.degradedMsg,
	}
	if !sw.started.IsZero() {
		t := sw.started
		st.Started = &t
	}
	if !sw.finished.IsZero() {
		t := sw.finished
		st.Finished = &t
	}
	for _, cs := range sw.outcomes {
		switch {
		case cs.State == "done":
			st.Completed++
		case cs.State == "failed" && terminal:
			st.Failed++
		default:
			cs = api.CellStatus{Cell: cs.Cell, State: "pending"}
		}
		if withCells {
			st.Cells = append(st.Cells, cs)
		}
	}
	t := sw.tally
	if live != nil && sw.live != nil { // running: live counters stand in for per-cell progress
		t = t.add(running)
		st.Completed = t.Executed + t.StoreHits + t.Resumed
	}
	st.Executed, st.StoreHits, st.Resumed = t.Executed, t.StoreHits, t.Resumed
	return st
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(r.PathValue("id"))
	if sw == nil {
		httpError(w, http.StatusNotFound, "no such sweep")
		return
	}
	respondJSON(w, http.StatusOK, s.status(sw, true))
}

// handleEvents streams the sweep's trace events as SSE: the buffered
// history first, then live events until the sweep finishes or the client
// goes away. Event types are the harness's record types (run_start,
// run_done, checkpoint_hit, store_hit, sweep_*) plus, in cluster mode,
// the shard records (shard_dispatch, shard_requeued, worker_death).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sw := s.lookup(r.PathValue("id"))
	if sw == nil {
		httpError(w, http.StatusNotFound, "no such sweep")
		return
	}
	if err := stream.ServeSSE(w, r, sw.hub); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleCell serves a stored cell by content address: the daemon's own
// store first, then the executor when it can see other stores (the
// cluster's workers). A hit there is persisted before serving, so the
// store converges toward holding everything the cluster computed.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	rec, ok, err := s.cfg.Store.Get(hash)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if ok {
		respondJSON(w, http.StatusOK, api.CellRecord{Hash: rec.Hash, Key: rec.Key, Value: rec.Value})
		return
	}
	if f, isFetcher := s.cfg.Executor.(sim.CellFetcher); isFetcher {
		if val, hit, ferr := f.FetchCell(r.Context(), hash); ferr == nil && hit {
			if perr := s.cfg.Store.Put(hash, nil, val); perr != nil {
				s.noteDegraded("store trouble: " + perr.Error())
			}
			respondJSON(w, http.StatusOK, api.CellRecord{Hash: hash, Value: val})
			return
		}
	}
	httpError(w, http.StatusNotFound, "no such cell")
}

// handleHealthz reports the daemon's tri-state health: "ok", "degraded"
// (serving, but limping — store corruption quarantined at open, store
// writes failing, isolated panics, dead workers; Reasons says why) with
// 200 so load balancers keep routing, or "draining" with 503 so they stop.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	reasons := append([]string(nil), s.degraded...)
	s.mu.Unlock()
	quarantined := s.cfg.Store.Quarantined()
	if quarantined > 0 {
		reasons = append(reasons, fmt.Sprintf("store quarantined %d corrupt records at open", quarantined))
	}
	h := api.Health{
		Status:           "ok",
		Draining:         draining,
		Reasons:          reasons,
		QueueDepth:       len(s.interactive) + len(s.bulk),
		SweepsInFlight:   int(obsSweepsInFlight.Value()),
		StoreCells:       s.cfg.Store.Len(),
		StoreQuarantined: quarantined,
	}
	code := http.StatusOK
	if len(reasons) > 0 {
		h.Status = "degraded"
	}
	if draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	respondJSON(w, code, h)
}

func respondJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	respondJSON(w, code, api.ErrorBody{Error: msg})
}
