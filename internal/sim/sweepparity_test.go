package sim

import (
	"context"
	"reflect"
	"testing"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// parityMachine is small enough that the full profile × technique product
// stays fast, while still exercising warmup, the decay machinery and the
// memory hierarchy.
func parityMachine(l2 int) MachineConfig {
	mc := DefaultMachine(l2)
	mc.Warmup = 30_000
	mc.Instructions = 60_000
	return mc
}

// TestTraceReplayParityAllProfiles is the bit-identity contract behind the
// sweep's shared trace cache: for every benchmark and both control
// techniques, a run replayed from a recorded buffer must equal a live
// generator run in every field of the RunResult — stats, energies,
// turnoff ratios, everything.
func TestTraceReplayParityAllProfiles(t *testing.T) {
	mc := parityMachine(11)
	tc := NewTraceCache("")
	defer tc.Close()
	ctx := context.Background()
	for _, prof := range workload.Profiles() {
		for _, tech := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
			params := leakctl.DefaultParams(tech, 4096)
			live, err := RunOne(ctx, mc, prof, params, nil)
			if err != nil {
				t.Fatalf("%s/%s live: %v", prof.Name, tech, err)
			}
			buf, err := tc.buffer(ctx, prof, mc.Warmup+mc.Instructions+traceSlack)
			if err != nil {
				t.Fatalf("%s record: %v", prof.Name, err)
			}
			cur, err := buf.Cursor()
			if err != nil {
				t.Fatalf("%s cursor: %v", prof.Name, err)
			}
			replay, err := RunOneFrom(ctx, mc, prof.Name, cur, params, nil)
			if err != nil {
				t.Fatalf("%s/%s replay: %v", prof.Name, tech, err)
			}
			if cur.Laps() != 0 {
				t.Fatalf("%s/%s: trace wrapped (%d laps); slack too small", prof.Name, tech, cur.Laps())
			}
			if !reflect.DeepEqual(live, replay) {
				t.Fatalf("%s/%s: replay diverged from live run\nlive   %+v\nreplay %+v",
					prof.Name, tech, live, replay)
			}
		}
	}
}

// TestRunStateReuseParity drives one RunState through a sequence of
// heterogeneous runs — technique changes, interval changes, benchmark
// changes, an I-cache-controlled machine, an L2 latency change — and
// checks each against a fresh-build run. Reused components must be
// indistinguishable from new ones even when consecutive runs differ in
// every dimension the reset paths touch.
func TestRunStateReuseParity(t *testing.T) {
	il1 := leakctl.DefaultParams(leakctl.TechDrowsy, 4096)
	mcIL1 := parityMachine(11)
	mcIL1.IL1Control = &il1
	cases := []struct {
		name string
		mc   MachineConfig
		prof string
		tech leakctl.Technique
		iv   uint64
	}{
		{"gated-gcc", parityMachine(11), "gcc", leakctl.TechGated, 4096},
		{"drowsy-gcc", parityMachine(11), "gcc", leakctl.TechDrowsy, 4096},
		{"drowsy-mcf-iv16k", parityMachine(11), "mcf", leakctl.TechDrowsy, 16384},
		{"baseline-gzip", parityMachine(11), "gzip", leakctl.TechNone, 0},
		{"il1-controlled", mcIL1, "gcc", leakctl.TechGated, 4096},
		{"l2-latency-5", parityMachine(5), "gcc", leakctl.TechGated, 4096},
	}
	ctx := context.Background()
	st := new(RunState)
	for _, c := range cases {
		prof, ok := workload.ByName(c.prof)
		if !ok {
			t.Fatalf("%s: unknown profile %q", c.name, c.prof)
		}
		params := leakctl.DefaultParams(c.tech, c.iv)
		fresh, err := RunOne(ctx, c.mc, prof, params, nil)
		if err != nil {
			t.Fatalf("%s fresh: %v", c.name, err)
		}
		reused, err := runOneFromState(ctx, c.mc, prof.Name, workload.NewGenerator(prof), params, nil, st)
		if err != nil {
			t.Fatalf("%s reused: %v", c.name, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("%s: state reuse diverged\nfresh  %+v\nreused %+v", c.name, fresh, reused)
		}
	}
}

// TestRunWithTraceMatchesRunOne covers the production path end to end:
// trace cache, cursor replay and worker state together.
func TestRunWithTraceMatchesRunOne(t *testing.T) {
	mc := parityMachine(11)
	tc := NewTraceCache("")
	defer tc.Close()
	st := new(RunState)
	ctx := context.Background()
	prof, _ := workload.ByName("parser")
	for _, tech := range []leakctl.Technique{leakctl.TechNone, leakctl.TechDrowsy, leakctl.TechGated} {
		params := leakctl.DefaultParams(tech, 4096)
		want, err := RunOne(ctx, mc, prof, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runWithTrace(ctx, tc, mc, prof, params, nil, st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: runWithTrace diverged from RunOne", tech)
		}
	}
}

// TestExperimentsFiguresIdenticalWithTraceCacheOff reruns a figure with the
// trace cache disabled and expects the exact same numbers: the performance
// layer must be invisible in the output.
func TestExperimentsFiguresIdenticalWithTraceCacheOff(t *testing.T) {
	build := func(disable bool) (Figure, Figure) {
		e := NewExperiments()
		e.Instructions = 60_000
		e.Warmup = 30_000
		e.Profiles = e.Profiles[:3]
		e.DisableTraceCache = disable
		defer e.Close()
		return e.LatencyFigure("S", "P", 11, 110, 4096)
	}
	savOn, perfOn := build(false)
	savOff, perfOff := build(true)
	if !reflect.DeepEqual(savOn, savOff) || !reflect.DeepEqual(perfOn, perfOff) {
		t.Fatalf("figures differ with trace cache off:\non  %v\noff %v", savOn, savOff)
	}
}

// TestExperimentsFiguresIdenticalSharedFront pins the shared front's
// bit-identity contract end to end: one RunCells call puts every
// benchmark at two L2 latencies, so each benchmark's two lockstep groups
// replay one front, and the figures at both latencies must equal the
// all-scalar (DisableBatch) figures exactly.
func TestExperimentsFiguresIdenticalSharedFront(t *testing.T) {
	l2s := []int{5, 11}
	build := func(disable bool) ([]Figure, int) {
		e := NewExperiments()
		e.Instructions = 60_000
		e.Warmup = 30_000
		e.Profiles = e.Profiles[:3]
		e.DisableBatch = disable
		defer e.Close()
		if _, err := e.RunCells(sharedFrontCells(e.Profiles, l2s, 4096)); err != nil {
			t.Fatal(err)
		}
		var figs []Figure
		for _, l2 := range l2s {
			sav, perf := e.LatencyFigure("S", "P", l2, 110, 4096)
			figs = append(figs, sav, perf)
		}
		return figs, e.BatchGroups()
	}
	batched, groups := build(false)
	scalar, _ := build(true)
	if !reflect.DeepEqual(batched, scalar) {
		t.Fatalf("figures differ between shared-front batches and DisableBatch:\nbatched %v\nscalar  %v", batched, scalar)
	}
	if want := 3 * len(l2s); groups != want {
		t.Fatalf("BatchGroups = %d, want %d", groups, want)
	}
}

// TestExperimentsWorkersOverride checks the worker-count resolution rules:
// an explicit Workers wins, Parallel=false defaults to 1.
func TestExperimentsWorkersOverride(t *testing.T) {
	for _, c := range []struct {
		parallel bool
		workers  int
		wantMin  int
		wantMax  int
	}{
		{false, 0, 1, 1},
		{true, 0, 1, 1 << 20}, // GOMAXPROCS: at least one
		{true, 3, 3, 3},
		{false, 5, 5, 5},
	} {
		e := NewExperiments()
		e.Parallel = c.parallel
		e.Workers = c.workers
		sup, err := e.supervisor()
		if err != nil {
			t.Fatal(err)
		}
		got := sup.Workers()
		if got < c.wantMin || got > c.wantMax {
			t.Fatalf("Parallel=%v Workers=%d resolved to %d workers", c.parallel, c.workers, got)
		}
	}
}
