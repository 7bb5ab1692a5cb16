package sim

import (
	"context"
	"math/bits"
	"reflect"
	"testing"

	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// TestDecayTooLongToFireIsNoControl is a paper invariant for energy cells:
// a drowsy or gated-Vss decay interval longer than the whole run never puts
// a line in standby, so the run's timing and every event count must be
// bit-equal to the uncontrolled baseline's — core stats, D-cache counts
// (no slow hits, no induced misses), L2, I-cache and predictor. Only the
// energy accounting may differ. It holds for every benchmark, on the
// scalar path and in one lockstep group carrying all three cells.
func TestDecayTooLongToFireIsNoControl(t *testing.T) {
	ctx := context.Background()
	mc := parityMachine(11)
	bs := new(BatchState)
	pool := testPool(t)
	same := func(t *testing.T, what string, base, got RunResult) {
		t.Helper()
		if got.DStats.SlowHits != 0 || got.DStats.SleepTransitions != 0 {
			t.Fatalf("%s: a line reached standby: %+v", what, got.DStats)
		}
		if !reflect.DeepEqual(base.CPU, got.CPU) || base.DStats != got.DStats ||
			base.L2Stats != got.L2Stats || base.ICStats != got.ICStats || base.Bpred != got.Bpred {
			t.Fatalf("%s differs from the baseline\nbase %+v\ngot  %+v", what, base, got)
		}
	}
	for _, prof := range workload.Profiles() {
		base, err := RunOne(ctx, mc, prof, leakctl.DefaultParams(leakctl.TechNone, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Eight times the measured window's cycles, scaled to the whole
		// run, rounded up to a power of two: the interval outlasts the run.
		est := 8 * base.CPU.Cycles * (mc.Warmup + mc.Instructions) / mc.Instructions
		iv := uint64(1) << bits.Len64(est)

		specs := []runSpec{{prof, 11, leakctl.TechNone, 0}, {prof, 11, leakctl.TechDrowsy, iv}, {prof, 11, leakctl.TechGated, iv}}
		lanes := make([]*batchLane, len(specs))
		for i, sp := range specs {
			lanes[i] = &batchLane{sp: sp}
		}
		runBatchGroup(ctx, mc, prof, lanes, newSharedFront(pool, mc.Warmup+mc.Instructions+traceSlack, 1), nil, bs)
		for _, ln := range lanes {
			if ln.err != nil {
				t.Fatalf("%s lane %s: %v", prof.Name, ln.sp.key(), ln.err)
			}
			same(t, prof.Name+" lane "+ln.sp.key(), base, ln.res)
		}
		for _, tech := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
			got, err := RunOne(ctx, mc, prof, leakctl.DefaultParams(tech, iv), nil)
			if err != nil {
				t.Fatal(err)
			}
			same(t, prof.Name+" scalar "+tech.String(), base, got)
		}
	}
}
