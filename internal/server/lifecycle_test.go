package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/obs"
	"hotleakage/internal/server/api"
)

// postSweep issues one raw submission (no client-side 429 retry loop) and
// returns the recorder, so admission-control headers are inspectable.
func postSweep(t *testing.T, h http.Handler, req api.SweepRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rr, r)
	return rr
}

func decodeStatus(t *testing.T, rr *httptest.ResponseRecorder) api.SweepStatus {
	t.Helper()
	var st api.SweepStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("status body %q: %v", rr.Body.String(), err)
	}
	return st
}

// TestRetryAfterFloor: a sub-second RetryAfter window must still advertise
// at least one second on 429s — the old integer truncation advertised
// "Retry-After: 0", which turns a well-behaved client into a hot loop.
func TestRetryAfterFloor(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	cfg := testConfig(t, st)
	cfg.QueueDepth = 1
	cfg.RetryAfter = 200 * time.Millisecond // sub-second: truncation would yield 0
	s := newServer(cfg)                     // paused: nothing dequeues

	fill := api.SweepRequest{
		Instructions: testInstr, Warmup: testWarmup, Priority: "bulk",
		Cells: []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096}},
	}
	if rr := postSweep(t, s.Handler(), fill); rr.Code != http.StatusAccepted {
		t.Fatalf("fill submit: %d %s", rr.Code, rr.Body.String())
	}
	over := fill
	over.Cells = []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 8192}}
	rr := postSweep(t, s.Handler(), over)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", rr.Code)
	}
	secs, err := strconv.Atoi(rr.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", rr.Header().Get("Retry-After"), err)
	}
	if secs < 1 {
		t.Errorf("Retry-After = %d, want >= 1 (sub-second windows must round up)", secs)
	}
}

// TestSweepRetentionEviction: terminal sweeps older than the retention
// window drop out of the lookup maps (GET becomes 404, identical requests
// start fresh), in-flight sweeps keep aliasing right up to eviction, and
// a newer sweep that re-aliased the same request hash is never evicted
// alongside an older one.
func TestSweepRetentionEviction(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	cfg := testConfig(t, st)
	cfg.Retention = time.Minute
	s := newServer(cfg) // paused: sweeps stay queued until we flip them

	req := api.SweepRequest{
		Instructions: testInstr, Warmup: testWarmup, Priority: "bulk",
		Cells: []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096}},
	}

	// Alias-before-evict: identical in-flight requests share a sweep.
	a := decodeStatus(t, postSweep(t, s.Handler(), req))
	if a2 := decodeStatus(t, postSweep(t, s.Handler(), req)); a2.ID != a.ID {
		t.Fatalf("in-flight alias broken: %s vs %s", a.ID, a2.ID)
	}

	// A non-terminal sweep is never evicted, however old the clock says.
	if n := s.evictExpired(time.Now().Add(24 * time.Hour)); n != 0 {
		t.Fatalf("evicted %d non-terminal sweeps", n)
	}

	// Flip it terminal with an old finish stamp; now it is evictable.
	now := time.Now()
	s.mu.Lock()
	swA := s.sweeps[a.ID]
	s.mu.Unlock()
	swA.mu.Lock()
	swA.state = api.StateCompleted
	swA.finished = now.Add(-2 * cfg.Retention)
	swA.mu.Unlock()

	// Newer-alias protection: resubmitting (A is terminal) makes sweep B,
	// which takes over the byHash slot.
	b := decodeStatus(t, postSweep(t, s.Handler(), req))
	if b.ID == a.ID {
		t.Fatalf("terminal sweep %s still aliasing", a.ID)
	}

	if n := s.evictExpired(now); n != 1 {
		t.Fatalf("evicted %d sweeps, want 1 (only the old terminal one)", n)
	}

	// GET-after-evict: the old sweep is gone.
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/sweeps/"+a.ID, nil))
	if rr.Code != http.StatusNotFound {
		t.Errorf("GET evicted sweep: %d, want 404", rr.Code)
	}

	// The newer sweep survived the eviction *and* kept its alias slot.
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/sweeps/"+b.ID, nil))
	if rr.Code != http.StatusOK {
		t.Errorf("GET newer sweep after eviction: %d, want 200", rr.Code)
	}
	if b2 := decodeStatus(t, postSweep(t, s.Handler(), req)); b2.ID != b.ID {
		t.Errorf("newer alias evicted with the older sweep: got %s, want %s", b2.ID, b.ID)
	}
}

// TestQueueDepthGaugeBalanced audits the queue-depth gauge across every
// sweep exit path: completed, watchdog-failed, panic-isolated, rejected
// and drained. After each path the gauge must be back at its baseline —
// a leak here poisons the load signal the cluster coordinator reads.
func TestQueueDepthGaugeBalanced(t *testing.T) {
	gauge := obs.Default.Gauge(obs.GaugeQueueDepth)
	base := gauge.Value()
	req := api.SweepRequest{
		Instructions: testInstr, Warmup: testWarmup,
		Cells: []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 4096}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	check := func(label string) {
		t.Helper()
		// The executor decrements before runIsolated; give in-flight
		// bookkeeping a beat to settle.
		deadline := time.Now().Add(5 * time.Second)
		for gauge.Value() != base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := gauge.Value(); got != base {
			t.Fatalf("%s: queue depth gauge %d, want %d", label, got, base)
		}
	}

	// Path 1: completed.
	{
		st := openStore(t, t.TempDir())
		cfg := testConfig(t, st)
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hts := httptest.NewServer(srv.Handler())
		cl := api.NewClient(hts.URL)
		cl.PollInterval = 5 * time.Millisecond
		sw, err := cl.SubmitSweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, cl, sw.ID); got.State != api.StateCompleted {
			t.Fatalf("completed path ended %s", got.State)
		}
		hts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Shutdown(sctx)
		scancel()
		st.Close()
		check("completed")
	}

	// Path 2: watchdog failure.
	{
		st := openStore(t, t.TempDir())
		cfg := testConfig(t, st)
		cfg.SweepTimeout = 1 * time.Millisecond
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hts := httptest.NewServer(srv.Handler())
		cl := api.NewClient(hts.URL)
		cl.PollInterval = 5 * time.Millisecond
		sw, err := cl.SubmitSweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, cl, sw.ID)
		hts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Shutdown(sctx)
		scancel()
		st.Close()
		check("watchdog")
	}

	// Path 3: panic-isolated executor (chaos plane fires in the sweep
	// executor itself).
	{
		st := openStore(t, t.TempDir())
		cfg := testConfig(t, st)
		plane, err := faultinject.ParsePlane("server.sweep:panic:1/1")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Plane = plane
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hts := httptest.NewServer(srv.Handler())
		cl := api.NewClient(hts.URL)
		cl.PollInterval = 5 * time.Millisecond
		sw, err := cl.SubmitSweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got := waitTerminal(t, cl, sw.ID); got.State != api.StateFailed {
			t.Fatalf("panic path ended %s, want failed", got.State)
		}
		hts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = srv.Shutdown(sctx)
		scancel()
		st.Close()
		check("panic-isolated")
	}

	// Paths 4 and 5: rejected overflow (the increment must be taken back
	// immediately) and queued-then-drained (Shutdown's queue flush).
	{
		st := openStore(t, t.TempDir())
		cfg := testConfig(t, st)
		cfg.QueueDepth = 1
		s := newServer(cfg) // paused: the sweep stays queued
		if rr := postSweep(t, s.Handler(), req); rr.Code != http.StatusAccepted {
			t.Fatalf("queued submit: %d", rr.Code)
		}
		if got := gauge.Value(); got != base+1 {
			t.Fatalf("queued: gauge %d, want %d", got, base+1)
		}
		over := req
		over.Priority = "bulk"
		req2 := over
		req2.Cells = []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 8192}}
		// First fill the single bulk slot, then overflow it.
		if rr := postSweep(t, s.Handler(), req2); rr.Code != http.StatusAccepted {
			t.Fatalf("bulk fill: %d", rr.Code)
		}
		req3 := over
		req3.Cells = []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: 16384}}
		if rr := postSweep(t, s.Handler(), req3); rr.Code != http.StatusTooManyRequests {
			t.Fatalf("overflow: %d, want 429", rr.Code)
		}
		if got := gauge.Value(); got != base+2 {
			t.Fatalf("after rejection: gauge %d, want %d (rejection must not leak)", got, base+2)
		}
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Shutdown(sctx); err != nil {
			t.Fatal(err)
		}
		scancel()
		st.Close()
		check("drain")
	}
}
