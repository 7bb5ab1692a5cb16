package sim

import (
	"fmt"

	"hotleakage/internal/bpred"
	"hotleakage/internal/cache"
	"hotleakage/internal/cpu"
	"hotleakage/internal/leakctl"
)

// machine is one assembled simulation stack: the memory hierarchy, the
// predictor and the core, wired exactly as RunOneFrom has always built
// them.
type machine struct {
	mem      *cache.Memory
	l2       *cache.Cache
	dl1      *leakctl.DCache
	il1Plain *cache.Cache
	il1Ctl   *leakctl.DCache
	pred     *bpred.Predictor
	core     *cpu.Core
}

// RunState is a worker-confined cache of simulation components reused
// across runs: the L2's megabyte of line bookkeeping, the predictor
// tables, the core's window arrays. Each component is reset to its
// just-constructed state between runs (see the Reset methods in cache,
// leakctl, bpred and cpu.Recycle), so a reused machine is bit-identical
// to a freshly built one — the reuse only removes the allocations, which
// at GOMAXPROCS-sized worker pools were the dominant GC pressure of a
// sweep.
//
// The zero value is ready to use. A RunState must not be shared between
// concurrently executing runs; the harness hands each worker its own (see
// harness.Config.WorkerState).
type RunState struct {
	mc    MachineConfig
	m     machine
	valid bool
}

// machineEqual reports whether two machine descriptions build the same
// components up to the latencies reuse applies on reset (every
// configuration struct is all-scalar, so value comparison is exact). The
// L2 hit latency and the memory latency are excluded: no allocation or
// energy model depends on them, and reuse sets them. Warmup/Instructions
// are excluded too: they shape the run, not the components.
func machineEqual(a, b MachineConfig) bool {
	if a.Tech == nil || b.Tech == nil || *a.Tech != *b.Tech {
		return false
	}
	l2a, l2b := a.L2, b.L2
	l2a.HitLatency, l2b.HitLatency = 0, 0
	if a.CPU != b.CPU || a.Bpred != b.Bpred ||
		a.L1I != b.L1I || a.L1D != b.L1D || l2a != l2b {
		return false
	}
	if (a.IL1Control == nil) != (b.IL1Control == nil) {
		return false
	}
	if a.IL1Control != nil && *a.IL1Control != *b.IL1Control {
		return false
	}
	return true
}

// assemble builds (or, via st, reuses) the simulation stack for one run.
// mc and params have already been validated by the caller.
func assemble(mc MachineConfig, src cpu.InstrSource, params leakctl.Params, adapter leakctl.Adapter, st *RunState) (machine, error) {
	if st != nil && st.valid && machineEqual(st.mc, mc) {
		if m, err := st.reuse(mc, src, params, adapter); err == nil {
			return m, nil
		}
		// A failed reset (e.g. params rejected mid-reset) leaves partially
		// reset components; invalidate and fall through to a fresh build.
		st.valid = false
	}
	m, err := buildMachine(mc, src, params, adapter)
	if err != nil {
		return machine{}, err
	}
	if st != nil {
		st.mc = mc
		st.m = m
		st.valid = true
	}
	return m, nil
}

// buildMachine constructs a fresh stack, preserving RunOneFrom's original
// construction order and error wrapping.
func buildMachine(mc MachineConfig, src cpu.InstrSource, params leakctl.Params, adapter leakctl.Adapter) (machine, error) {
	var m machine
	m.mem = cache.NewMemory(mc.Tech, mc.MemLatency)
	var err error
	m.l2, err = cache.New(mc.Tech, mc.L2, m.mem)
	if err != nil {
		return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	m.dl1, err = leakctl.New(mc.Tech, mc.L1D, params, m.l2)
	if err != nil {
		return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if adapter != nil {
		m.dl1.Adapter = adapter
	}

	// The I-cache is plain unless the extension study controls it too.
	var l1i cpu.FetchCache
	if mc.IL1Control != nil {
		m.il1Ctl, err = leakctl.New(mc.Tech, mc.L1I, *mc.IL1Control, m.l2)
		if err != nil {
			return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		l1i = m.il1Ctl
	} else {
		m.il1Plain, err = cache.New(mc.Tech, mc.L1I, m.l2)
		if err != nil {
			return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		l1i = m.il1Plain
	}

	m.pred = bpred.New(mc.Bpred)
	m.core = cpu.New(mc.CPU, src, m.pred, l1i, m.dl1)
	return m, nil
}

// reuse resets every cached component to the state buildMachine(mc, ...)
// would leave it in, latencies included, and rewires it for the new run.
func (st *RunState) reuse(mc MachineConfig, src cpu.InstrSource, params leakctl.Params, adapter leakctl.Adapter) (machine, error) {
	m := st.m
	st.mc = mc
	m.mem.Reset(mc.MemLatency)
	m.l2.Reset(mc.L2, m.mem)
	if err := m.dl1.Reset(mc.Tech, params, m.l2); err != nil {
		return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if adapter != nil {
		m.dl1.Adapter = adapter
	}
	var l1i cpu.FetchCache
	if mc.IL1Control != nil {
		if err := m.il1Ctl.Reset(mc.Tech, *mc.IL1Control, m.l2); err != nil {
			return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		l1i = m.il1Ctl
	} else {
		m.il1Plain.Reset(mc.L1I, m.l2)
		l1i = m.il1Plain
	}
	m.pred.Reset()
	m.core = cpu.Recycle(m.core, mc.CPU, src, m.pred, l1i, m.dl1)
	st.m = m
	return m, nil
}
