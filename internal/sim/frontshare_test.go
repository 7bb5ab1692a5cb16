package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hotleakage/internal/cpu"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/workload"
)

// sharedFrontCells is every profile at every L2 latency as a baseline plus
// drowsy and gated-Vss at one interval: each (benchmark, L2) is a
// three-lane group, and each benchmark's groups share one front.
func sharedFrontCells(profs []workload.Profile, l2s []int, interval uint64) []CellSpec {
	var cells []CellSpec
	for _, prof := range profs {
		for _, l2 := range l2s {
			cells = append(cells, CellSpec{prof.Name, l2, leakctl.TechNone, 0})
			for _, tech := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
				cells = append(cells, CellSpec{prof.Name, l2, tech, interval})
			}
		}
	}
	return cells
}

func counter(name string) uint64 { return obs.Default.Snapshot().Counters[name] }

// TestSharedFrontFillOncePerBenchmark pins the shared front's accounting:
// B benchmarks at two L2 latencies fill B fronts, all live, none through
// the trace cache; the free list keeps at most workers+1 fronts' chunks
// resident; and Close gives every resident byte back.
func TestSharedFrontFillOncePerBenchmark(t *testing.T) {
	e := NewExperiments()
	e.Instructions = 40_000
	e.Warmup = 10_000
	e.Profiles = e.Profiles[:4]
	e.Workers = 2
	b := len(e.Profiles)
	live0, trace0 := counter("sim_front_fill_live_total"), counter("sim_front_fill_trace_total")
	resident0 := obsFrontResident.Value()

	outs, err := e.RunCells(sharedFrontCells(e.Profiles, []int{5, 11}, 4096))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Key, o.Err)
		}
	}
	if got := counter("sim_front_fill_live_total") - live0; got != uint64(b) {
		t.Fatalf("live front fills = %d, want %d (one per benchmark)", got, b)
	}
	if got := counter("sim_front_fill_trace_total") - trace0; got != 0 {
		t.Fatalf("trace front fills = %d, want 0", got)
	}
	if got, want := e.BatchGroups(), 2*b; got != want {
		t.Fatalf("BatchGroups = %d, want %d", got, want)
	}
	frontBytes := int64(chunksFor(e.Warmup+e.Instructions+traceSlack)) * frontChunkBytes
	grown := obsFrontResident.Value() - resident0
	if grown <= 0 || grown > int64(e.Workers+1)*frontBytes {
		t.Fatalf("resident front bytes grew by %d, want (0, %d]", grown, int64(e.Workers+1)*frontBytes)
	}
	e.Close()
	if got := obsFrontResident.Value(); got != resident0 {
		t.Fatalf("resident front bytes after Close = %d, want %d", got, resident0)
	}
}

// hookedChunks is a frontPool whose Get first calls onGet with its
// 1-based call count.
type hookedChunks struct {
	*frontPool
	gets  atomic.Int32
	onGet func(n int32)
}

func (h *hookedChunks) Get() *cpu.FrontChunk {
	h.onGet(h.gets.Add(1))
	return h.frontPool.Get()
}

func chunksFor(n uint64) int { return int((n + cpu.FrontChunkLen - 1) / cpu.FrontChunkLen) }

// freeChunks returns the pool's free-list length.
func freeChunks(p *frontPool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// TestSharedFrontConcurrentGroups runs two groups of one benchmark — two
// L2 latencies — on one three-chunk front, the second starting only once
// the first has published chunk 1 (its third chunk request has begun).
// The late group reads chunks its sibling filled and may have passed, and
// every lane must equal the same cell run entirely on the scalar path.
func TestSharedFrontConcurrentGroups(t *testing.T) {
	prof, _ := workload.ByName("vpr")
	l2s := []int{5, 11}
	const warmup, n = 30_000, 110_000
	ref := NewExperiments()
	ref.Instructions = n
	ref.Warmup = warmup
	ref.DisableBatch = true
	defer ref.Close()
	outs, err := ref.RunCells(sharedFrontCells([]workload.Profile{prof}, l2s, 8192))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]RunResult)
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("scalar %s: %v", o.Key, o.Err)
		}
		want[o.Key] = o.Result
	}

	live0 := counter("sim_front_fill_live_total")
	resident0 := obsFrontResident.Value()
	pool := new(frontPool)
	chunk1Filled := make(chan struct{})
	chunks := &hookedChunks{frontPool: pool, onGet: func(n int32) {
		if n == 3 {
			close(chunk1Filled)
		}
	}}
	frontLen := uint64(warmup + n + traceSlack)
	if chunksFor(frontLen) != 3 {
		t.Fatalf("front of %d records spans %d chunks, want 3", frontLen, chunksFor(frontLen))
	}
	sf := newSharedFront(chunks, frontLen, len(l2s))
	groups := make([][]*batchLane, len(l2s))
	var wg sync.WaitGroup
	for i, l2 := range l2s {
		for _, sp := range batchSpecs(prof, l2, []uint64{8192}) {
			groups[i] = append(groups[i], &batchLane{sp: sp})
		}
		mc := parityMachine(l2)
		mc.Warmup, mc.Instructions = warmup, n
		wg.Add(1)
		go func(first bool, mc MachineConfig, lanes []*batchLane) {
			defer wg.Done()
			if !first {
				<-chunk1Filled
			}
			runBatchGroup(context.Background(), mc, prof, lanes, sf, nil, new(BatchState))
		}(i == 0, mc, groups[i])
	}
	wg.Wait()
	if got := counter("sim_front_fill_live_total") - live0; got != 1 {
		t.Fatalf("front filled %d times, want once", got)
	}
	for _, lanes := range groups {
		for _, ln := range lanes {
			if ln.err != nil {
				t.Fatalf("lane %s: %v", ln.sp.key(), ln.err)
			}
			if !reflect.DeepEqual(want[ln.sp.key()], ln.res) {
				t.Fatalf("lane %s: shared-front result diverged from DisableBatch", ln.sp.key())
			}
		}
	}
	made := int((obsFrontResident.Value() - resident0) / frontChunkBytes)
	if free := freeChunks(pool); made < 1 || free != made {
		t.Fatalf("%d chunks made, %d back on the free list; want all back", made, free)
	}
	pool.drain()
	if got := obsFrontResident.Value(); got != resident0 {
		t.Fatalf("resident front bytes after drain = %d, want %d", got, resident0)
	}
}

// frontGrowth runs every (profile, L2) group of cells on a fresh
// Experiments with the given worker count and run length, and returns how
// many front chunks the run left resident (live plus free list) before
// Close.
func frontGrowth(t *testing.T, profs []workload.Profile, l2s []int, workers int, n uint64) int {
	t.Helper()
	e := NewExperiments()
	e.Instructions = n
	e.Warmup = 10_000
	e.Profiles = profs
	e.Workers = workers
	defer e.Close()
	resident0 := obsFrontResident.Value()
	outs, err := e.RunCells(sharedFrontCells(profs, l2s, 4096))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Fatalf("n=%d %s: %v", n, o.Key, o.Err)
		}
	}
	return int((obsFrontResident.Value() - resident0) / frontChunkBytes)
}

// TestSharedFrontMemoryFlatInRunLength checks that front memory no longer
// grows with the run length. A lone group per front holds at most the
// chunk its slowest lane reads and the one its fastest lane has reached,
// so it leaves exactly two chunks resident at 150k and at 600k measured
// instructions (fronts of 3 and 10 chunks). With two L2 groups per front
// on two workers, residency also depends on how far apart the sibling
// groups run, which is wall-clock timing; there the run must stay within
// three chunks per busy worker plus the benchmark at the head of the
// queue, which at 600k is less than one whole front.
func TestSharedFrontMemoryFlatInRunLength(t *testing.T) {
	profs := workload.Profiles()[:2]
	short, long := frontGrowth(t, profs, []int{11}, 1, 150_000), frontGrowth(t, profs, []int{11}, 1, 600_000)
	if short != 2 || long != 2 {
		t.Fatalf("one group per front: %d chunks resident at n=150k, %d at n=600k; want 2 at both", short, long)
	}

	const workers = 2
	bound := (workers + 1) * 3
	for _, n := range []uint64{150_000, 600_000} {
		got := frontGrowth(t, profs, []int{5, 11}, workers, n)
		t.Logf("two groups per front: %d chunks resident at n=%d", got, n)
		if got < 1 || got > bound {
			t.Fatalf("two groups per front, n=%d: %d chunks resident, want 1..%d", n, got, bound)
		}
	}
}

// errAfter is a context whose Err reports cancellation from its n-th
// call on, so a group is canceled after a few lockstep rounds.
type errAfter struct {
	context.Context
	calls atomic.Int32
	n     int32
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSharedFrontEarlyExitReleases checks that a group which exits early
// still returns every chunk it holds. For each way out — an invalid
// machine config, a group canceled mid-run, a fill that fails after the
// first chunk — the early group runs before a healthy sibling on the same
// front (the failed fill fails both); afterwards every chunk made is back
// on the free list and draining it restores the resident gauge.
func TestSharedFrontEarlyExitReleases(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	const warmup, n = 30_000, 110_000
	machine := func(l2 int) MachineConfig {
		mc := parityMachine(l2)
		mc.Warmup, mc.Instructions = warmup, n
		return mc
	}
	for _, c := range []struct {
		name     string
		mutate   func(*MachineConfig)
		ctx      context.Context
		failFill bool
		wantErr  string
	}{
		{name: "invalid config", mutate: func(mc *MachineConfig) { mc.MemLatency = 0 }, wantErr: "memory latency"},
		{name: "canceled", ctx: &errAfter{Context: context.Background(), n: 6}, wantErr: "canceled"},
		{name: "failed fill", failFill: true, wantErr: "batch front fill"},
	} {
		resident0 := obsFrontResident.Value()
		pool := new(frontPool)
		chunks := &hookedChunks{frontPool: pool, onGet: func(n int32) {
			if c.failFill && n == 2 {
				panic("chunk storage exhausted")
			}
		}}
		sf := newSharedFront(chunks, warmup+n+traceSlack, 2)
		for i, l2 := range []int{5, 11} {
			mc, ctx := machine(l2), context.Context(context.Background())
			if i == 0 {
				if c.mutate != nil {
					c.mutate(&mc)
				}
				if c.ctx != nil {
					ctx = c.ctx
				}
			}
			var lanes []*batchLane
			for _, sp := range batchSpecs(prof, l2, []uint64{4096}) {
				lanes = append(lanes, &batchLane{sp: sp})
			}
			runBatchGroup(ctx, mc, prof, lanes, sf, nil, new(BatchState))
			for _, ln := range lanes {
				early := i == 0 || c.failFill
				if early && (ln.err == nil || !strings.Contains(ln.err.Error(), c.wantErr)) {
					t.Fatalf("%s: early lane %s err = %v, want %q", c.name, ln.sp.key(), ln.err, c.wantErr)
				}
				if !early && ln.err != nil {
					t.Fatalf("%s: sibling lane %s: %v", c.name, ln.sp.key(), ln.err)
				}
			}
		}
		made := int((obsFrontResident.Value() - resident0) / frontChunkBytes)
		if free := freeChunks(pool); made < 1 || free != made {
			t.Fatalf("%s: %d chunks made, %d back on the free list; want all back", c.name, made, free)
		}
		pool.drain()
		if got := obsFrontResident.Value(); got != resident0 {
			t.Fatalf("%s: resident front bytes after drain = %d, want %d", c.name, got, resident0)
		}
	}
}

// brokenPredictor makes bpred.New panic (BTB sets = entries / assoc), so a
// front fill through it fails with a recovered panic.
func brokenPredictor(mc *MachineConfig) { mc.Bpred.BTBAssoc = 0 }

// TestSharedFrontFillFailure checks that a failed fill — a recovered
// panic or a canceled context — fails every lane of every group sharing
// the front, and that the batch phase hands all of them to the scalar
// fallback.
func TestSharedFrontFillFailure(t *testing.T) {
	prof, _ := workload.ByName("gcc")
	l2s := []int{5, 11}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name   string
		ctx    context.Context
		mutate func(*MachineConfig)
		check  func(error) bool
	}{
		{"panic", context.Background(), brokenPredictor,
			func(err error) bool { return strings.Contains(err.Error(), "batch front fill") }},
		{"canceled", canceled, func(*MachineConfig) {},
			func(err error) bool { return errors.Is(err, context.Canceled) }},
	} {
		sf := testFront(t, parityMachine(l2s[0]), len(l2s))
		for _, l2 := range l2s {
			mc := parityMachine(l2)
			c.mutate(&mc)
			var lanes []*batchLane
			for _, sp := range batchSpecs(prof, l2, []uint64{4096}) {
				lanes = append(lanes, &batchLane{sp: sp})
			}
			runBatchGroup(c.ctx, mc, prof, lanes, sf, nil, new(BatchState))
			for _, ln := range lanes {
				if ln.err == nil || !c.check(ln.err) {
					t.Fatalf("%s: lane %s err = %v", c.name, ln.sp.key(), ln.err)
				}
			}
		}
	}

	e := NewExperiments()
	e.Instructions = 60_000
	e.Warmup = 30_000
	defer e.Close()
	var pending []runSpec
	for _, l2 := range l2s {
		brokenPredictor(&e.suite(l2).MC)
		pending = append(pending, batchSpecs(prof, l2, []uint64{4096})...)
	}
	fallback0 := counter(obs.MetricBatchScalarFallback)
	remaining, completed, executed := e.runBatchPhase(pending)
	if len(remaining) != len(pending) || len(completed) != 0 || executed != 0 {
		t.Fatalf("batch phase kept %d of %d cells for scalar (completed %d, executed %d)",
			len(remaining), len(pending), len(completed), executed)
	}
	if got := counter(obs.MetricBatchScalarFallback) - fallback0; got != uint64(len(pending)) {
		t.Fatalf("scalar fallbacks = %d, want %d", got, len(pending))
	}
	if got := e.BatchGroups(); got != len(l2s) {
		t.Fatalf("BatchGroups = %d, want %d", got, len(l2s))
	}
}
