package sim

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"
	"unsafe"

	"hotleakage/internal/bpred"
	"hotleakage/internal/cpu"
	"hotleakage/internal/energy"
	"hotleakage/internal/harness"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/workload"
)

// Shared-front instruments: fronts filled (always live, from the
// generator) and the chunk bytes held. sim_front_fill_trace_total is
// registered only so that it keeps rendering at zero: batch fronts no
// longer fill from the trace cache, and dashboards and the benchmark's
// scrape keep a stable schema.
var (
	_                = obs.Default.Counter("sim_front_fill_trace_total")
	obsFrontFillLive = obs.Default.Counter("sim_front_fill_live_total")
	obsFrontResident = obs.Default.Gauge(obs.GaugeFrontResident)
)

// frontChunkBytes is one front chunk's size.
const frontChunkBytes = int64(unsafe.Sizeof(cpu.FrontChunk{}))

// frontKey identifies a front's contents: the stream (benchmark and
// length) and the predictor that precomputed its outcomes. Nothing else in
// a machine config reaches the front, so every L2 latency of a benchmark
// shares one.
type frontKey struct {
	bench string
	n     uint64
	bp    bpred.Config
}

// sharedFront is one benchmark's front within a batch phase: its chunks
// are filled by whichever of its groups needs them first and read
// concurrently by all of them, each group holding one reference per chunk
// until it has passed it. A failed fill fails every group that shares it.
type sharedFront struct {
	front *cpu.Front
	once  sync.Once
	err   error
}

// newSharedFront returns an unfilled front of n records for groups groups,
// with chunk storage from chunks.
func newSharedFront(chunks cpu.FrontChunks, n uint64, groups int) *sharedFront {
	return &sharedFront{front: cpu.NewFront(n, groups, chunks)}
}

// open starts the fill on first call — a fresh generator and predictor
// that the front keeps until its last chunk is filled — and returns that
// outcome on every call. A canceled ctx or a panic is the error.
func (sf *sharedFront) open(ctx context.Context, mc MachineConfig, prof workload.Profile) error {
	sf.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				sf.err = fmt.Errorf("batch front fill: %v", r)
			}
		}()
		if sf.err = ctx.Err(); sf.err != nil {
			return
		}
		sf.front.Start(workload.NewGenerator(prof), bpred.New(mc.Bpred))
		obsFrontFillLive.Add(1)
	})
	return sf.err
}

// frontPool is the free list of front chunks, accounted in
// sim_front_resident_bytes together with the live chunks handed out from
// it. It is an explicit list rather than a sync.Pool so that peak memory
// does not depend on GC timing: a chunk returns here as soon as every
// group sharing its front has passed it, and the next fill reuses it.
type frontPool struct {
	mu   sync.Mutex
	free []*cpu.FrontChunk
}

// Get implements cpu.FrontChunks: it pops a free chunk or allocates one.
func (p *frontPool) Get() *cpu.FrontChunk {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		return c
	}
	obsFrontResident.Add(frontChunkBytes)
	return new(cpu.FrontChunk)
}

// Put implements cpu.FrontChunks.
func (p *frontPool) Put(c *cpu.FrontChunk) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, c)
}

// drain drops the free list.
func (p *frontPool) drain() {
	p.mu.Lock()
	defer p.mu.Unlock()
	obsFrontResident.Add(-int64(len(p.free)) * frontChunkBytes)
	p.free = nil
}

// BatchState is one batch-executor goroutine's reusable scratch: one
// RunState per lane, so every lane's machine components are reused
// run-to-run exactly like the scalar workers' (cpu.Recycle /
// RunState.reuse reset them to pristine; the reuse parity tests cover the
// batch fields too).
//
// A BatchState must not be shared between concurrently executing groups.
type BatchState struct {
	lanes []*RunState
}

// batchLane is one cell riding a lockstep group: its spec going in, and
// either a result or an error (any error sends the cell back to the
// scalar supervisor path, which owns retry/timeout/injection semantics)
// coming out.
type batchLane struct {
	sp  runSpec
	res RunResult
	dur time.Duration
	err error
	// injectPanic arms a mid-batch injected panic: the lane panics on its
	// first execution round, after its batch-mates have started running.
	injectPanic bool
}

// laneRun is the per-lane execution bookkeeping inside a group: the
// assembled machine, the chunk budget of the current phase, and the
// running stats.
type laneRun struct {
	ln     *batchLane
	m      machine
	params leakctl.Params
	flush  func()
	// left counts committed instructions remaining in the current phase;
	// inWarmup selects which phase that is.
	left     uint64
	inWarmup bool
	cs       cpu.Stats
	done     bool
}

// failLanes marks every lane failed with err (called before any lane has
// started executing).
func failLanes(lanes []*batchLane, err error) {
	for _, ln := range lanes {
		if ln.err == nil {
			ln.err = err
		}
	}
}

// runBatchGroup executes a group of technique/interval variants of one
// (benchmark, machine config) in lockstep off the benchmark's shared front
// sf, filling its chunks as the group reaches them if no other group has.
// After every round the group releases the chunks below its slowest live
// lane, and on return every chunk it still holds. Each lane advances by
// exactly the scalar path's chunk sequence — warmup in runChunk steps, the
// runOneFromState warmup-boundary resets, then the measurement window in
// runChunk steps — so a lane's Run-call sequence is literally the one
// runCommitted would have issued and the results are bit-identical to
// scalar execution. Lanes that fail (panic, injected
// fault, cancellation) carry the error out; batch-mates are unaffected.
func runBatchGroup(ctx context.Context, mc MachineConfig, prof workload.Profile, lanes []*batchLane, sf *sharedFront, inj faultinject.Injector, bs *BatchState) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	held := 0 // chunks below held are released
	defer func() { sf.front.Release(held, sf.front.Chunks()) }()
	if err := mc.Validate(); err != nil {
		failLanes(lanes, fmt.Errorf("%w: %v", ErrInvalidConfig, err))
		return
	}
	if err := sf.open(ctx, mc, prof); err != nil {
		failLanes(lanes, err)
		return
	}
	for len(bs.lanes) < len(lanes) {
		bs.lanes = append(bs.lanes, new(RunState))
	}

	// Per-goroutine obs shard, exactly like a scalar worker's run.
	sh := obs.Default.AcquireShard()
	defer sh.Release()

	runnable := make([]*laneRun, 0, len(lanes))
	for i, ln := range lanes {
		// Injection decisions are taken per lane up front (the batch lane
		// is one attempt, attempt 0). Panics are armed to fire mid-batch —
		// that is the failure mode worth proving isolation for; every other
		// fault kind is the scalar supervisor's business, so the lane is
		// bounced there without running.
		if inj != nil {
			switch d := inj.Decide(ln.sp.key(), 0); d {
			case faultinject.FaultNone:
			case faultinject.FaultPanic:
				ln.injectPanic = true
			default:
				ln.err = fmt.Errorf("faultinject: %s scheduled for %s, deferring to scalar execution", d, ln.sp.key())
				continue
			}
		}
		params := leakctl.DefaultParams(ln.sp.tech, ln.sp.interval)
		if err := params.Validate(); err != nil {
			ln.err = fmt.Errorf("%w: %v", ErrInvalidConfig, err)
			continue
		}
		// The core never touches its instruction source in replay mode, so
		// the lane machine assembles with a nil source.
		m, err := assemble(mc, nil, params, nil, bs.lanes[i])
		if err != nil {
			ln.err = err
			continue
		}
		if err := m.core.AttachFront(sf.front); err != nil {
			ln.err = err
			continue
		}
		lr := &laneRun{ln: ln, m: m, params: params, inWarmup: mc.Warmup > 0}
		if lr.inWarmup {
			lr.left = mc.Warmup
		} else {
			lr.left = mc.Instructions
		}
		lr.flush = func() {
			m.core.ObsFlush(sh)
			m.dl1.ObsFlush(sh)
			m.l2.ObsFlush(sh)
			m.il1Plain.ObsFlush(sh)
		}
		runnable = append(runnable, lr)
	}

	// Lockstep rounds: every live lane executes one chunk per round, so
	// the group marches through the shared front together and a fault in
	// one lane surfaces while its batch-mates are mid-flight.
	active := len(runnable)
	for active > 0 {
		slowest := math.MaxInt
		for _, lr := range runnable {
			if lr.done {
				continue
			}
			stepLane(ctx, mc, prof, lr)
			if lr.done {
				active--
				continue
			}
			slowest = min(slowest, lr.m.core.FrontPos())
		}
		if c := slowest >> cpu.FrontChunkShift; active > 0 && c > held {
			sf.front.Release(held, c)
			held = c
		}
	}

	// Cost attribution for the EWMA model: the group's wall time (shared
	// front fill included) split evenly across the lanes that produced a
	// result — per-lane duration is what the model expects to see.
	wall := time.Since(start)
	ok := 0
	for _, ln := range lanes {
		if ln.err == nil {
			ok++
		}
	}
	if ok > 0 {
		per := wall / time.Duration(ok)
		for _, ln := range lanes {
			if ln.err == nil {
				ln.dur = per
			}
		}
	}
}

// stepLane advances one lane by one chunk (or phase boundary), recovering
// panics into the lane's error.
func stepLane(ctx context.Context, mc MachineConfig, prof workload.Profile, lr *laneRun) {
	defer func() {
		if r := recover(); r != nil {
			lr.ln.err = &harness.PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
			lr.done = true
		}
	}()
	if err := ctx.Err(); err != nil {
		lr.ln.err = err
		lr.done = true
		return
	}
	if lr.ln.injectPanic {
		lr.ln.injectPanic = false
		panic(fmt.Sprintf("faultinject: injected panic into %s (batch lane)", lr.ln.sp.key()))
	}
	step := uint64(runChunk)
	if lr.left < step {
		step = lr.left
	}
	lr.cs = lr.m.core.Run(step)
	lr.flush()
	lr.left -= step
	if lr.left > 0 {
		return
	}
	if lr.inWarmup {
		// The warmup boundary: the same reset set, in the same order, as
		// runOneFromState (the lane's private predictor is idle in replay
		// mode — the core's BP mirror is what ResetStats zeroes).
		m := lr.m
		m.core.ResetStats()
		m.l2.ResetStats()
		m.mem.ResetStats()
		m.pred.ResetStats()
		m.dl1.ResetStats(m.core.Now())
		m.il1Plain.ResetStats()
		lr.inWarmup = false
		lr.left = mc.Instructions
		return
	}
	finishLane(mc, prof, lr)
	lr.done = true
}

// finishLane assembles the lane's RunResult exactly as runOneFromState
// does, with the core's replay-accumulated BP standing in for the scalar
// path's predictor stats.
func finishLane(mc MachineConfig, prof workload.Profile, lr *laneRun) {
	m, cs := lr.m, lr.cs
	m.dl1.Finish(m.core.Now())
	meas := energy.RunMeasurement{
		Cycles:            cs.Cycles,
		Instructions:      cs.Instructions,
		StandbyLineCycles: m.dl1.StandbyLineCycles(),
		DCacheDynJ:        m.dl1.Energy.Total(),
		L2DynJ:            m.l2.DynJ,
		MemDynJ:           m.mem.DynJ,
		ICacheDynJ:        m.il1Plain.DynJ,
		ClockJ: float64(cs.Cycles) * (m.dl1.AccessE.PerCycleClock +
			mc.Tech.ChipBackgroundW/mc.Tech.ClockHz),
		DStats: m.dl1.Stats,
	}
	lr.ln.res = RunResult{
		Bench:       prof.Name,
		Params:      lr.params,
		CPU:         cs,
		DStats:      m.dl1.Stats,
		L2Stats:     m.l2.Stats,
		ICStats:     m.il1Plain.Stats,
		Bpred:       m.core.BP,
		TurnoffRat:  m.dl1.TurnoffRatio(),
		Measurement: meas,
	}
	if err := checkRun(lr.ln.res); err != nil {
		// Same acceptance bar as the supervisor's Check hook; a rejected
		// result re-runs on the scalar path where retry semantics apply.
		lr.ln.res = RunResult{}
		lr.ln.err = err
	}
}
