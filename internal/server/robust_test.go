package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/server/api"
	"hotleakage/internal/store"
)

// waitTerminal polls a sweep until it leaves the running states.
func waitTerminal(t *testing.T, cl *api.Client, id string) api.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, err := cl.Sweep(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if api.Terminal(st.State) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached a terminal state", id)
	return api.SweepStatus{}
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

// TestInjectedHandlerFault: non-panic faults at the server.handler site
// surface as 502s without touching the mux.
func TestInjectedHandlerFault(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	plane, err := faultinject.ParsePlane("server.handler:5xx:1/1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, st)
	cfg.Plane = plane
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != http.StatusBadGateway {
		t.Fatalf("injected 5xx: got %d, want 502", rr.Code)
	}
}

// TestSweepWatchdog: a sweep that outlives Config.SweepTimeout is killed by
// the watchdog and marked failed with a timeout verdict; the daemon itself
// stays healthy and accepts further work.
func TestSweepWatchdog(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	cfg := testConfig(t, st)
	cfg.SweepTimeout = 1 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	cl := api.NewClient(hts.URL)

	acc, err := cl.SubmitSweep(context.Background(), twoCellRequest())
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, cl, acc.ID)
	if final.State != api.StateFailed {
		t.Fatalf("watchdogged sweep state %q (err %q), want failed", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "watchdog") {
		t.Errorf("failure message %q does not name the watchdog", final.Error)
	}

	// The daemon survived its own watchdog: still answering, not draining.
	hl, code := getHealth(t, srv.Handler())
	if code != http.StatusOK || hl.Status == "draining" {
		t.Errorf("daemon unhealthy after watchdog fired: %d %q", code, hl.Status)
	}
}

// TestDegradedComplete: when every store write fails but simulation
// succeeds, the sweep completes with its results — flagged degraded rather
// than failed — and /healthz turns degraded while still returning 200.
func TestDegradedComplete(t *testing.T) {
	dir := t.TempDir()
	plane := faultinject.NewPlane().Rule(faultinject.SiteStoreSync, faultinject.OpErr, 1, 0, 0)
	st, err := store.OpenOptions(dir, store.Options{
		FS:   &store.FaultFS{Plane: plane, Base: store.OSFS{}},
		Logf: func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cfg := testConfig(t, st)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	cl := api.NewClient(hts.URL)

	acc, err := cl.SubmitSweep(context.Background(), twoCellRequest())
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, cl, acc.ID)
	if final.State != api.StateCompleted {
		t.Fatalf("sweep state %q (err %q), want completed despite store trouble", final.State, final.Error)
	}
	if final.Failed != 0 || final.Completed != 2 {
		t.Errorf("completed=%d failed=%d, want 2/0", final.Completed, final.Failed)
	}
	if final.Degraded == "" {
		t.Error("completed sweep with failing store writes is not flagged degraded")
	}

	hl, code := getHealth(t, srv.Handler())
	if code != http.StatusOK {
		t.Fatalf("degraded healthz: got %d, want 200 (still serving)", code)
	}
	if hl.Status != "degraded" {
		t.Errorf("health status %q, want degraded", hl.Status)
	}
	found := false
	for _, r := range hl.Reasons {
		if strings.Contains(r, "store trouble") {
			found = true
		}
	}
	if !found {
		t.Errorf("health reasons %v do not mention store trouble", hl.Reasons)
	}
}

// TestHealthzDraining: once shutdown begins, /healthz flips to draining
// with 503 so load balancers stop routing here.
func TestHealthzDraining(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	srv, err := New(testConfig(t, st))
	if err != nil {
		t.Fatal(err)
	}
	hl, code := getHealth(t, srv.Handler())
	if code != http.StatusOK || hl.Status != "ok" {
		t.Fatalf("fresh daemon healthz: %d %q, want 200 ok", code, hl.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	hl, code = getHealth(t, srv.Handler())
	if code != http.StatusServiceUnavailable || hl.Status != "draining" {
		t.Errorf("draining healthz: %d %q, want 503 draining", code, hl.Status)
	}
	if !hl.Draining {
		t.Error("draining flag not set")
	}
}
