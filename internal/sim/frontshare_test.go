package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

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

// TestSharedFrontFillOncePerBenchmark pins the tentpole's accounting: B
// benchmarks at two L2 latencies fill B fronts, all live, none through the
// trace cache; the free list keeps at most workers+1 fronts' records
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
	frontBytes := int64(e.Warmup+e.Instructions+traceSlack) * frontRecBytes
	grown := obsFrontResident.Value() - resident0
	if grown <= 0 || grown > int64(e.Workers+1)*frontBytes {
		t.Fatalf("resident front bytes grew by %d, want (0, %d]", grown, int64(e.Workers+1)*frontBytes)
	}
	e.Close()
	if got := obsFrontResident.Value(); got != resident0 {
		t.Fatalf("resident front bytes after Close = %d, want %d", got, resident0)
	}
}

// TestSharedFrontConcurrentGroups runs two groups of one benchmark — two
// L2 latencies — concurrently on one front and requires every lane to
// equal the same cell run entirely on the scalar path.
func TestSharedFrontConcurrentGroups(t *testing.T) {
	prof, _ := workload.ByName("vpr")
	l2s := []int{5, 11}
	ref := NewExperiments()
	ref.Instructions = 60_000
	ref.Warmup = 30_000
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
	sf := testFront(t)
	groups := make([][]*batchLane, len(l2s))
	var wg sync.WaitGroup
	for i, l2 := range l2s {
		for _, sp := range batchSpecs(prof, l2, []uint64{8192}) {
			groups[i] = append(groups[i], &batchLane{sp: sp})
		}
		wg.Add(1)
		go func(mc MachineConfig, lanes []*batchLane) {
			defer wg.Done()
			runBatchGroup(context.Background(), mc, prof, lanes, sf, nil, new(BatchState))
		}(parityMachine(l2), groups[i])
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
		sf := testFront(t)
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
