package sim

import (
	"context"
	"sync"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/trace"
	"hotleakage/internal/workload"
)

// Trace-cache outcome counters: all low-frequency (per run / per
// benchmark), recorded through the registry's shared base shard.
var (
	obsTraceHits   = obs.Default.Counter(obs.MetricTraceCacheHits)
	obsTraceMisses = obs.Default.Counter(obs.MetricTraceCacheMisses)
	obsTraceBytes  = obs.Default.Counter(obs.MetricTraceCacheBytes)
	obsTraceWraps  = obs.Default.Counter(obs.MetricTraceCacheWraps)
)

// traceSlack is how many instructions a recorded stream extends past
// warmup+measure. The core fetches ahead of commit by at most the RUU
// window plus the fetch buffer (~100 instructions with the Table 2
// machine); the slack is set far above that bound, and replays that
// nevertheless consume past the recording are detected by the cursor's
// lap counter and re-run live (see runWithTrace).
const traceSlack = 4096

// TraceCache shares recorded instruction streams across a sweep's
// scalar-path cells: per (benchmark, run length) the synthetic generator
// runs once, into a compact encoded trace.Buffer, and every scalar cell
// replays it through a private cursor while every RunResult stays
// bit-identical (the recorded stream IS the generator's stream, and
// parity tests enforce it per profile and technique). Lockstep batch
// groups do not use it: their shared fronts fill live, once per
// benchmark (batch.go).
//
// Recording is single-flight: concurrent cells for the same benchmark
// elect one recording leader and the rest wait. With a non-empty SpillDir
// buffers live on disk instead of memory (see trace.RecordBuffer).
type TraceCache struct {
	// SpillDir, when non-empty, is the directory encoded traces are
	// written to instead of being held in memory. Set it before first use.
	SpillDir string

	mu      sync.Mutex
	buffers map[traceKey]*traceCell
}

type traceKey struct {
	bench string
	n     uint64
}

// traceCell is one buffer's single-flight slot; done is closed when the
// recording leader finishes, after which buf/err are immutable. A failed
// leader removes its cell before closing done so later callers retry.
type traceCell struct {
	done chan struct{}
	buf  *trace.Buffer
	err  error
}

// NewTraceCache builds an empty cache. spillDir may be "" (in-memory).
func NewTraceCache(spillDir string) *TraceCache {
	return &TraceCache{SpillDir: spillDir, buffers: make(map[traceKey]*traceCell)}
}

// buffer returns (recording on first use) the shared buffer for prof at n
// instructions.
func (tc *TraceCache) buffer(ctx context.Context, prof workload.Profile, n uint64) (*trace.Buffer, error) {
	key := traceKey{bench: prof.Name, n: n}
	for {
		tc.mu.Lock()
		if tc.buffers == nil {
			tc.buffers = make(map[traceKey]*traceCell)
		}
		c, ok := tc.buffers[key]
		if !ok {
			c = &traceCell{done: make(chan struct{})}
			tc.buffers[key] = c
			tc.mu.Unlock()
			c.buf, c.err = trace.RecordBuffer(prof.Name, workload.NewGenerator(prof), n, tc.SpillDir)
			if c.err != nil {
				tc.mu.Lock()
				delete(tc.buffers, key)
				tc.mu.Unlock()
			} else {
				obsTraceMisses.Add(1)
				obsTraceBytes.Add(uint64(c.buf.SizeBytes()))
			}
			close(c.done)
			return c.buf, c.err
		}
		tc.mu.Unlock()
		select {
		case <-c.done:
			if c.err == nil {
				obsTraceHits.Add(1)
				return c.buf, nil
			}
			// The leader failed and removed its cell; retry.
			if ctx != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
		case <-ctxDone(ctx):
			return nil, ctx.Err()
		}
	}
}

// Close releases every buffer (removing spill files). The cache is
// reusable afterwards; buffers re-record on demand.
func (tc *TraceCache) Close() error {
	tc.mu.Lock()
	cells := make([]*traceCell, 0, len(tc.buffers))
	for _, c := range tc.buffers {
		cells = append(cells, c)
	}
	tc.buffers = make(map[traceKey]*traceCell)
	tc.mu.Unlock()
	var first error
	for _, c := range cells {
		<-c.done
		if c.buf != nil {
			if err := c.buf.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// runWithTrace runs one simulation cell, replaying the shared recorded
// stream when tc is non-nil and falling back to live generation whenever
// the trace path cannot guarantee bit-identity: a recording failure, or a
// replay that consumed past the recorded length (cursor wrapped — its
// second lap would diverge from a live generator, so the result is
// discarded and the run repeated live). st, when non-nil, supplies
// worker-confined reusable components on either path.
//
// adapterFor (may be nil) is invoked once per actual execution rather
// than once per call: a wrap-fallback re-run must not inherit interval
// state the adapter learned during the discarded replay.
func runWithTrace(ctx context.Context, tc *TraceCache, mc MachineConfig, prof workload.Profile, params leakctl.Params, adapterFor func() leakctl.Adapter, st *RunState) (RunResult, error) {
	newAdapter := func() leakctl.Adapter {
		if adapterFor == nil {
			return nil
		}
		return adapterFor()
	}
	if tc != nil {
		buf, err := tc.buffer(ctx, prof, mc.Warmup+mc.Instructions+traceSlack)
		if err == nil {
			cur, cerr := buf.Cursor()
			if cerr == nil {
				r, rerr := runOneFromState(ctx, mc, prof.Name, cur, params, newAdapter(), st)
				if rerr != nil {
					return RunResult{}, rerr
				}
				if cur.Laps() == 0 {
					return r, nil
				}
				obsTraceWraps.Add(1)
			}
		} else if ctx != nil && ctx.Err() != nil {
			return RunResult{}, err
		}
	}
	return runOneFromState(ctx, mc, prof.Name, workload.NewGenerator(prof), params, newAdapter(), st)
}
