package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hotleakage/internal/harness"
	"hotleakage/internal/obs"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
	"hotleakage/internal/stream"
)

// Executor resolves an admitted sweep's cells. It is the seam between the
// server, which owns admission, queueing, the sweep lifecycle and the HTTP
// surface, and wherever the cells are computed: this process's harness
// (the default) or a cluster of workers (cluster.Coordinator).
//
// Run records each cell's outcome on job (Done/Fail) and its tallies
// (Count/Live), and returns a degraded reason (every result produced, but
// infrastructure limped) and a run error (the run was cut short or
// produced nothing usable). ctx carries the sweep's drain, deadline and
// watchdog cancellation. An executor that also implements
// sim.CellFetcher backs GET /v1/cells/{hash} when the server's store
// misses; a hit is persisted in the store before it is served.
type Executor interface {
	Run(ctx context.Context, job *Job) (degraded string, err error)
}

// Tally counts how a sweep's cells were resolved: simulated, served from
// a content-addressed store, or restored from a checkpoint.
type Tally struct {
	Executed, StoreHits, Resumed int
}

func (t Tally) add(u Tally) Tally {
	return Tally{t.Executed + u.Executed, t.StoreHits + u.StoreHits, t.Resumed + u.Resumed}
}

// Job is one admitted sweep moving through queued -> running ->
// {completed, failed, canceled}. The exported fields are fixed at
// admission and are what an executor reads; outcomes go through the
// methods, which are safe for concurrent use.
type Job struct {
	ID           string
	ReqHash      string
	Priority     string
	Instructions uint64
	Warmup       uint64
	// Cells is the sweep in wire order: Specs' energy cells, then
	// Attacks' attack cells (the order api.ExpandCells documents).
	Cells   []api.Cell
	Specs   []sim.CellSpec
	Attacks []sim.AttackSpec
	// Store is the server's result store.
	Store *store.Store
	// Events receives the sweep's progress records: its SSE stream and
	// the server's telemetry sink.
	Events harness.EventSink

	srv    *Server
	ctx    context.Context
	cancel context.CancelFunc
	hub    *stream.Hub

	mu       sync.Mutex
	state    string
	created  time.Time
	started  time.Time
	finished time.Time
	// outcomes is the per-wire-cell result; every status is built from it.
	outcomes []api.CellStatus
	tally    Tally
	live     func() Tally
	errMsg   string
	// degradedMsg marks a sweep that completed with results intact but
	// with infrastructure trouble (store writes failing): the work is
	// done, just not all of it persisted for reuse.
	degradedMsg string
}

// Done records cell i as produced under content address hash.
func (j *Job) Done(i int, hash string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.outcomes[i].State, j.outcomes[i].Hash, j.outcomes[i].Error = "done", hash, ""
}

// Fail records cell i as failed with msg, unless it is already done: a
// cell produced once stays done even if a duplicate dispatch fails later.
func (j *Job) Fail(i int, hash, msg string) {
	if msg == "" {
		msg = "cell failed"
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.outcomes[i].State != "done" {
		j.outcomes[i].State, j.outcomes[i].Hash, j.outcomes[i].Error = "failed", hash, msg
	}
}

// Outcome returns cell i's current result ("pending", "done" or "failed").
func (j *Job) Outcome(i int) api.CellStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.outcomes[i]
}

// Count adds t to the sweep's tally.
func (j *Job) Count(t Tally) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.tally = j.tally.add(t)
}

// Live makes fn the sweep's running tally while it executes: status reads
// it, and its sum stands in for the completed count, until the sweep
// finishes and fn's last value is folded into the tally.
func (j *Job) Live(fn func() Tally) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.live = fn
}

// liveTally returns the running tally source, to be called without j.mu
// held: it reads the executor's own counters.
func (j *Job) liveTally() func() Tally {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.live
}

// Degrade records a reason the daemon is limping, reported by /healthz.
func (j *Job) Degrade(reason string) {
	j.srv.noteDegraded(reason)
	j.srv.cfg.Log.Printf("leakd: sweep %s: %s", j.ID, reason)
}

// inProcess is the default executor: the cells run on this process's
// harness pool through sim.Experiments, with a trace cache shared across
// sweeps and a checkpoint per request.
type inProcess struct {
	cfg    Config
	traces *sim.TraceCache
}

// Run resolves both cell kinds under one Experiments, so they share the
// store, the checkpoint file (disjoint key namespaces) and the live
// counters. Every completed cell is in the store and the checkpoint
// before Run returns, so a drain mid-sweep loses no finished work.
func (x *inProcess) Run(ctx context.Context, j *Job) (string, error) {
	e := sim.NewExperiments()
	e.Instructions = j.Instructions
	e.Warmup = j.Warmup
	e.Parallel = true
	e.Workers = x.cfg.Workers
	e.Store = j.Store
	e.SharedTraces = x.traces
	e.Ctx = ctx
	e.RunTimeout = x.cfg.RunTimeout
	e.MaxRetries = x.cfg.MaxRetries
	e.Peer = x.cfg.Peer
	e.Events = j.Events
	// The checkpoint is keyed by the request hash: a daemon killed
	// mid-sweep resumes exactly this request's remaining cells on restart.
	ckptDir := filepath.Join(j.Store.Dir(), "checkpoints")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		return "", fmt.Errorf("checkpoint dir: %w", err)
	}
	e.CheckpointPath = filepath.Join(ckptDir, j.ReqHash+".jsonl")
	e.Resume = true
	defer e.Close()
	j.Live(func() Tally { return Tally{e.Executed(), e.StoreHits(), e.Resumed()} })

	outs, err := e.RunCells(j.Specs)
	var attackOuts []sim.AttackOutcome
	if err == nil {
		attackOuts, err = e.RunAttackCells(j.Attacks)
	}
	resolve := func(i int, hash string, re *harness.RunError) {
		if re != nil {
			j.Fail(i, hash, re.Err)
		} else {
			j.Done(i, hash)
		}
	}
	for i, o := range outs {
		resolve(i, o.Hash, o.Err)
	}
	for i, o := range attackOuts {
		resolve(len(j.Specs)+i, o.Hash, o.Err)
	}
	// Run trouble and infrastructure trouble are different verdicts: a
	// batch that produced its results but could not persist them all is
	// degraded-complete (the daemon recomputes next time instead of lying
	// about durability), not failed.
	var degraded string
	if infraErr := e.Err(); infraErr != nil {
		degraded = infraErr.Error()
		j.Degrade("store trouble: " + degraded)
	}
	return degraded, err
}

// multiSink tees harness events to the sweep's hub and the global sink.
type multiSink []harness.EventSink

func (m multiSink) Write(rec obs.Record) {
	for _, s := range m {
		if s != nil {
			s.Write(rec)
		}
	}
}
