package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/obs"
	"hotleakage/internal/server"
	"hotleakage/internal/server/api"
	"hotleakage/internal/store"
)

// TestFrontEnds runs the HTTP-level admission and lifecycle contract once
// per executor: a daemon simulating in-process and a one-worker cluster
// must be indistinguishable to a client, because both are the same
// server.Server with a different executor behind it.
func TestFrontEnds(t *testing.T) {
	executors := []struct {
		name string
		new  func(t *testing.T) server.Executor
	}{
		{"in-process", func(*testing.T) server.Executor { return nil }},
		{"cluster", func(t *testing.T) server.Executor {
			ts, _ := startWorker(t, server.Config{})
			return newCoordinator(t, []string{ts.URL})
		}},
	}
	checks := []struct {
		name string
		run  func(t *testing.T, exec server.Executor)
	}{
		{"aliasing", checkAliasing},
		{"429_retry_after", checkOverflow},
		{"503_draining", checkDraining},
		{"retention_eviction", checkRetention},
		{"panic_isolation", checkPanicIsolation},
		{"healthz_quarantine", checkQuarantine},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			for _, ex := range executors {
				t.Run(ex.name, func(t *testing.T) { c.run(t, ex.new(t)) })
			}
		})
	}
}

func oneCell(interval uint64) api.SweepRequest {
	return api.SweepRequest{
		Instructions: testInstr, Warmup: testWarmup, Priority: "bulk",
		Cells: []api.Cell{{Bench: "gzip", L2: 11, Technique: "drowsy", Interval: interval}},
	}
}

// slowSweeps arms the server.sweep site so every sweep holds its executor
// for d before running: long enough that a test's follow-up requests all
// land while the first sweep is still in flight.
func slowSweeps(d time.Duration) *faultinject.Plane {
	return faultinject.NewPlane().Rule(faultinject.SiteServerSweep, faultinject.OpSlow, 1, 0, d)
}

// postSweep issues one raw submission (no client-side 429 retry loop), so
// admission-control statuses and headers are inspectable.
func postSweep(t *testing.T, url string, req api.SweepRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func getHealth(t *testing.T, h http.Handler) (api.Health, int) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	var hl api.Health
	if err := json.Unmarshal(rr.Body.Bytes(), &hl); err != nil {
		t.Fatalf("healthz body %q: %v", rr.Body.String(), err)
	}
	return hl, rr.Code
}

// checkAliasing: an identical request submitted while the first is still
// in flight aliases onto it instead of queueing duplicate work.
func checkAliasing(t *testing.T, exec server.Executor) {
	_, ts := startServer(t, server.Config{Executor: exec, Plane: slowSweeps(time.Second)})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl := fastDial(ts.URL)
	a, err := cl.SubmitSweep(ctx, oneCell(4096))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.SubmitSweep(ctx, oneCell(4096))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Errorf("identical in-flight requests got distinct sweeps %s and %s", a.ID, b.ID)
	}
	if final, err := cl.WaitSweep(ctx, a.ID); err != nil || final.State != api.StateCompleted {
		t.Fatalf("aliased sweep: %+v, %v", final, err)
	}
}

// checkOverflow: with one sweep running and the bulk queue (depth 1)
// full, the next distinct submission is a 429 whose Retry-After rounds a
// sub-second window up to a whole second.
func checkOverflow(t *testing.T, exec server.Executor) {
	_, ts := startServer(t, server.Config{
		Executor: exec, QueueDepth: 1, RetryAfter: 200 * time.Millisecond,
		Plane: slowSweeps(time.Second),
	})
	for i := uint64(0); i < 3; i++ {
		resp := postSweep(t, ts.URL, oneCell(1024<<i))
		if resp.StatusCode == http.StatusAccepted {
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submit %d: %d, want 202 or 429", i, resp.StatusCode)
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
			t.Fatalf("429 Retry-After %q, want a whole number of seconds >= 1", resp.Header.Get("Retry-After"))
		}
		return
	}
	t.Fatal("three submissions past one running sweep and a depth-1 queue: no 429")
}

// checkDraining: once Shutdown begins, submissions are refused with 503.
func checkDraining(t *testing.T, exec server.Executor) {
	srv, ts := startServer(t, server.Config{Executor: exec})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if resp := postSweep(t, ts.URL, oneCell(4096)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// checkRetention: the janitor evicts a terminal sweep once the retention
// window passes (GET turns 404) and counts it in
// server_sweeps_evicted_total.
func checkRetention(t *testing.T, exec server.Executor) {
	evicted := func() uint64 { return obs.Default.Snapshot().Counters[obs.MetricSweepsEvicted] }
	before := evicted()
	_, ts := startServer(t, server.Config{Executor: exec, Retention: 5 * time.Millisecond}) // janitor ticks at the 1s floor
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl := fastDial(ts.URL)
	sw, err := cl.SubmitSweep(ctx, oneCell(4096))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.WaitSweep(ctx, sw.ID); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		_, err := cl.Sweep(ctx, sw.ID)
		var se *api.StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			if evicted() <= before {
				t.Errorf("sweep evicted but %s did not move from %d", obs.MetricSweepsEvicted, before)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("janitor never evicted the terminal sweep")
}

// checkPanicIsolation: a handler panic injected by the chaos plane 500s
// that one request; the daemon keeps serving and reports itself degraded.
func checkPanicIsolation(t *testing.T, exec server.Executor) {
	plane := faultinject.NewPlane().Rule(faultinject.SiteServerHandler, faultinject.OpPanic, 1, 0, 0)
	srv, _ := startServer(t, server.Config{Executor: exec, Plane: plane})
	h := srv.Handler()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: got %d, want 500", rr.Code)
	}

	// Disarm the plane: the daemon must still be serving, now degraded.
	plane.Rule(faultinject.SiteServerHandler, faultinject.OpNone, 0, 0, 0)
	hl, code := getHealth(t, h)
	if code != http.StatusOK || hl.Status != "degraded" {
		t.Fatalf("healthz after isolated panic: %d %q, want 200 degraded", code, hl.Status)
	}
	if !strings.Contains(fmt.Sprint(hl.Reasons), "panic") {
		t.Errorf("health reasons %v mention no panic", hl.Reasons)
	}
}

// checkQuarantine: a store that quarantined corrupt records at open makes
// the daemon report degraded with the count on the wire.
func checkQuarantine(t *testing.T, exec server.Executor) {
	dir := t.TempDir()
	st := openStore(t, dir)
	for i := 0; i < 8; i++ {
		key := map[string]int{"cell": i}
		h, err := store.CanonicalHash(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(h, key, map[string]any{"leakage": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Smash a byte in the middle of the segment: one record quarantines.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("glob: %v (%d segments)", err, len(segs))
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] = 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenOptions(dir, store.Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	if st2.Quarantined() == 0 {
		t.Fatal("corrupted segment produced no quarantined records")
	}
	srv, _ := startServer(t, server.Config{Store: st2, Executor: exec})
	hl, code := getHealth(t, srv.Handler())
	if code != http.StatusOK || hl.Status != "degraded" {
		t.Fatalf("quarantine healthz: %d %q, want 200 degraded", code, hl.Status)
	}
	if hl.StoreQuarantined == 0 {
		t.Error("health does not carry the quarantine count")
	}
}
