package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
	"hotleakage/internal/trace"
	"hotleakage/internal/workload"
)

// cellBudget is the instructions one energy cell commits, warmup included.
const cellBudget = cellInstructions + cellWarmup

// layers runs the traced part of a run: it times calls into each layer's
// public functions from outside the program, adds the daemons' counter
// deltas from the traced passes, writes the spans, and fills the
// per-layer metrics. Spans inside the program are not measured here.
func (b *bench) layers(ctx context.Context, ms map[string]metric) error {
	tr := b.tr
	probes := tr.begin("probes", -1, "")
	energy, attacks := splitKinds(b.wl.executed)
	bytesPerInstr, err := probeFront(ctx, tr, probes, energy)
	if err != nil {
		return err
	}
	// The in-process reference: the cells the daemons simulate, through
	// sim.Experiments with no store and no HTTP.
	if err := tr.timed("sim.Experiments.RunCells", probes, int64(len(b.wl.executed)), func() error {
		_, _, err := recompute(b.wl.executed)
		return err
	}); err != nil {
		return err
	}
	if len(attacks) == 0 {
		attacks = attackSample(b.cfg.seed, b.wl.requests[0])
	}
	if err := probeAttack(tr, probes, attacks); err != nil {
		return err
	}
	last := b.passes[len(b.passes)-1]
	for _, p := range b.passes {
		if p.traced {
			last = p
		}
	}
	bytesPerCell, err := probeStore(tr, probes, last.entryDB, sortedKeys(last.served.values), filepath.Join(b.work, "put-probe"))
	if err != nil {
		return err
	}
	tr.end(probes, 0)

	// Counter deltas and walls of the traced passes, against the untraced.
	counters := make(map[string]float64)
	var tracedWalls, untracedWalls []float64
	var tracedWall, cpuS float64
	nTraced := 0.0
	for _, p := range b.passes {
		if !p.traced {
			untracedWalls = append(untracedWalls, p.wallS)
			continue
		}
		nTraced++
		tracedWalls = append(tracedWalls, p.wallS)
		tracedWall += p.wallS
		cpuS += p.cpuS
		for k, v := range p.deltas {
			counters[k] += v
		}
	}
	perPass := func(fam string) float64 { return counters[fam] / nTraced }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	set := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }

	gen := append(tr.named("workload.NewGenerator"), tr.named("workload.Generator.Next")...)
	genNS := ratio(sumDur(gen), float64(cellBudget)*float64(len(tr.named("workload.Generator.Next"))))
	recordNS := rate(tr.named("trace.RecordBuffer"))
	replayNS := rate(tr.named("trace.Cursor.Next"))
	set("workload.gen_ns_per_instr", genNS, "ns")
	set("trace.record_ns_per_instr", recordNS, "ns")
	set("trace.replay_ns_per_instr", replayNS, "ns")
	set("trace.bytes_per_instr", bytesPerInstr, "B")
	set("sim.front_fill_trace", perPass("sim_front_fill_trace_total"), "count")
	set("sim.front_fill_live", perPass("sim_front_fill_live_total"), "count")

	set("cpu.ns_per_instr", rate(tr.named("sim.RunOne")), "ns")
	sampled := counters["sim_stage_sampled_cycles_total"]
	for _, st := range []string{"tick", "commit", "issue", "dispatch", "fetch"} {
		set("cpu.stage_"+st+"_ns", ratio(counters["sim_stage_"+st+"_ns_total"], sampled), "ns")
	}
	set("leakctl.l2_ns_per_miss", ratio(counters["leakctl_dl1_l2_ns_total"], counters["leakctl_dl1_l2_sampled_misses_total"]), "ns")

	set("sim.batch_groups", perPass("sim_batch_groups_total"), "count")
	set("sim.lanes_per_group", ratio(counters["sim_batch_lanes_total"], counters["sim_batch_groups_total"]), "count")
	set("sim.scalar_fallbacks", perPass("sim_batch_scalar_fallback_total"), "count")
	inproc := sumDur(tr.named("sim.Experiments.RunCells")) / 1e9
	set("sim.inproc_s", inproc, "s")

	set("harness.busy_frac", ratio(counters["harness_worker_busy_ms_total"]/1e3, simThreads*tracedWall), "frac")
	set("harness.runs_failed", perPass("harness_runs_failed_total"), "count")

	set("store.open_ms", median(durations(tr.named("store.Open"), time.Millisecond)), "ms")
	putUS := median(durations(tr.named("store.Put"), time.Microsecond))
	set("store.get_us", median(durations(tr.named("store.Get"), time.Microsecond)), "us")
	set("store.put_us", putUS, "us")
	set("store.hit_ratio", ratio(counters["store_hits_total"], counters["store_hits_total"]+counters["store_misses_total"]), "frac")
	set("store.bytes_per_cell", bytesPerCell, "B")

	sw := sweepTimings(tr)
	set("server.admit_ms", median(durations(tr.named("server.admit"), time.Millisecond)), "ms")
	queue := durations(tr.named("server.queue"), time.Millisecond)
	set("server.queue_p50_ms", nearestRank(queue, 50), "ms")
	set("server.queue_p99_ms", nearestRank(queue, 99), "ms")
	set("server.run_ms", median(durations(tr.named("server.run"), time.Millisecond)), "ms")
	set("server.stream_ms", median(sw.stream), "ms")
	set("server.rejected", perPass("server_sweeps_rejected_total"), "count")
	uw := median(untracedWalls)
	set("server.tax_s", uw-inproc, "s")

	set("cluster.shards", perPass("cluster_shards_dispatched_total"), "count")
	set("cluster.steals", perPass("cluster_steals_total"), "count")
	set("cluster.worker_busy_frac", ratio(cpuS, simThreads*tracedWall), "frac")
	set("cluster.tax_s", uw-inproc, "s")

	set("attack.run_ms", median(durations(tr.named("attack.Run"), time.Millisecond)), "ms")

	// Closure: how much of the traced walls the named layers account for.
	// Simulation layers run on simThreads threads, the per-sweep serving
	// steps on the workload's clients; the remainder is not hidden.
	// The backend is priced at the scalar core's in-process rate without
	// instruction generation, times the instructions the daemons
	// committed.
	backend := (rate(tr.named("sim.RunOne")) - genNS) * counters["sim_instructions_total"] / 1e9 / simThreads
	front := (counters["trace_cache_misses_total"]*recordNS +
		counters["trace_cache_hits_total"]*replayNS +
		counters["sim_front_fill_live_total"]*genNS) * float64(cellBudget) / 1e9 / simThreads
	storeS := counters["store_misses_total"] * putUS / 1e6
	serverS := sw.serveMS / 1e3 / float64(b.wl.clients)
	shares := map[string]float64{
		"bench.share_backend":    ratio(backend, tracedWall),
		"bench.share_front_fill": ratio(front, tracedWall),
		"bench.share_store":      ratio(storeS, tracedWall),
		"bench.share_server":     ratio(serverS, tracedWall),
	}
	rest := 1.0
	for name, v := range shares {
		set(name, v, "frac")
		rest -= v
	}
	set("bench.unattributed_frac", rest, "frac")
	set("bench.trace_overhead_frac", ratio(median(tracedWalls), uw)-1, "frac")
	set("bench.failed_frac", ratio(float64(b.failed), float64(b.attempted)), "frac")

	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", b.wl.name, b.cfg.seed, os.Getpid()))
	if err := tr.write(path, counters); err != nil {
		return err
	}
	fmt.Printf("%-14s %d spans written to %s\n", b.wl.name, len(tr.spans), path)
	return nil
}

func sumDur(spans []span) float64 {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return float64(d)
}

type sweepTiming struct {
	stream  []float64 // per sweep: client latency - (Finished - Created), ms
	serveMS float64   // summed admit + queue + stream over sweeps, ms
}

// sweepTimings joins each traced sweep's spans: the client's POST and
// SSE wait with the daemon's queue and run intervals.
func sweepTimings(tr *tracer) sweepTiming {
	kids := make(map[int]map[string]span)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Parent >= 0 && tr.spans[s.Parent].Name == "sweep" {
			if kids[s.Parent] == nil {
				kids[s.Parent] = make(map[string]span)
			}
			kids[s.Parent][s.Name] = s
		}
	}
	tr.mu.Unlock()
	var out sweepTiming
	for _, k := range kids {
		admit, a := k["server.admit"]
		stream, s := k["client.stream"]
		queue, q := k["server.queue"]
		run, r := k["server.run"]
		if !a || !s || !q || !r {
			continue
		}
		latency := float64(stream.End - admit.Start)
		onServer := float64(run.End - queue.Start)
		ms := (latency - onServer) / 1e6
		out.stream = append(out.stream, ms)
		out.serveMS += (float64(admit.dur()) + float64(queue.dur())) / 1e6
		out.serveMS += ms
	}
	return out
}

func splitKinds(cells []api.Cell) (energy, attacks []api.Cell) {
	for _, c := range cells {
		if c.Kind == api.KindAttack {
			attacks = append(attacks, c)
		} else {
			energy = append(energy, c)
		}
	}
	return energy, attacks
}

// probeFront times instruction generation, trace record and replay, and
// one scalar baseline cell per benchmark the workload simulates. It
// returns the recorded trace size in bytes per instruction.
func probeFront(ctx context.Context, tr *tracer, parent int, energy []api.Cell) (float64, error) {
	l2 := make(map[string]int)
	var benches []string
	for _, c := range energy {
		if _, ok := l2[c.Bench]; !ok {
			l2[c.Bench] = c.L2
			benches = append(benches, c.Bench)
		}
	}
	sort.Strings(benches)
	var bytes, instr int64
	for _, name := range benches {
		prof, ok := workload.ByName(name)
		if !ok {
			return 0, fmt.Errorf("probe: unknown benchmark %s", name)
		}
		var g *workload.Generator
		_ = tr.timed("workload.NewGenerator", parent, 0, func() error {
			g = workload.NewGenerator(prof)
			return nil
		})
		var ins workload.Instr
		_ = tr.timed("workload.Generator.Next", parent, int64(cellBudget), func() error {
			for i := uint64(0); i < cellBudget; i++ {
				g.Next(&ins)
			}
			return nil
		})
		var buf *trace.Buffer
		if err := tr.timed("trace.RecordBuffer", parent, int64(cellBudget), func() (err error) {
			buf, err = trace.RecordBuffer(name, workload.NewGenerator(prof), cellBudget, "")
			return err
		}); err != nil {
			return 0, fmt.Errorf("probe: record %s: %w", name, err)
		}
		bytes += buf.SizeBytes()
		instr += int64(buf.Len())
		if err := tr.timed("trace.Cursor.Next", parent, int64(buf.Len()), func() error {
			cur, err := buf.Cursor()
			if err != nil {
				return err
			}
			for i := uint64(0); i < buf.Len(); i++ {
				cur.Next(&ins)
			}
			return nil
		}); err != nil {
			return 0, fmt.Errorf("probe: replay %s: %w", name, err)
		}
		if err := buf.Close(); err != nil {
			return 0, err
		}
		mc := sim.DefaultMachine(l2[name])
		mc.Instructions, mc.Warmup = cellInstructions, cellWarmup
		if err := tr.timed("sim.RunOne", parent, int64(cellBudget), func() error {
			_, err := sim.RunOne(ctx, mc, prof, leakctl.DefaultParams(leakctl.TechNone, 0), nil)
			return err
		}); err != nil {
			return 0, fmt.Errorf("probe: RunOne %s: %w", name, err)
		}
	}
	if instr == 0 {
		return 0, nil
	}
	return float64(bytes) / float64(instr), nil
}

// attackSample is the attack cells timed on a workload with none of its
// own: every registered scenario under both techniques, at the first L2
// latency and a seeded interval.
func attackSample(seed int64, req api.SweepRequest) []api.Cell {
	r := rngFor(seed, "attack-probe")
	l2 := 11
	if len(req.L2Latencies) > 0 {
		l2 = req.L2Latencies[0]
	}
	var out []api.Cell
	for _, sc := range attack.Names() {
		for _, t := range []string{"drowsy", "gated-vss"} {
			out = append(out, api.Cell{Kind: api.KindAttack, Scenario: sc, L2: l2, Technique: t,
				Interval: uint64(256 + r.Intn(65536-256))})
		}
	}
	return out
}

// probeAttack times attack.Run once per attack cell.
func probeAttack(tr *tracer, parent int, cells []api.Cell) error {
	for _, c := range cells {
		sp, err := c.AttackSpec()
		if err != nil {
			return err
		}
		sc, ok := attack.ByName(sp.Scenario)
		if !ok {
			return fmt.Errorf("probe: unknown scenario %s", sp.Scenario)
		}
		mc := sim.DefaultMachine(sp.L2)
		m := attack.Machine{Tech: mc.Tech, L1D: mc.L1D, L2: mc.L2, MemLatency: mc.MemLatency}
		if err := tr.timed("attack.Run", parent, 1, func() error {
			_, err := attack.Run(m, sc, leakctl.DefaultParams(sp.Technique, sp.Interval))
			return err
		}); err != nil {
			return fmt.Errorf("probe: attack %s: %w", sp.Key(), err)
		}
	}
	return nil
}

// storeOpens is how many times the store probe reopens the pass's store.
const storeOpens = 5

// probeStore times store.Open on the store a traced pass left behind,
// store.Get of each of its records, and store.Put (fsync included) of the
// same records into an empty store at putDir. It returns the store's
// bytes per cell.
func probeStore(tr *tracer, parent int, dir string, hashes []string, putDir string) (float64, error) {
	var st *store.Store
	for i := 0; i < storeOpens; i++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return 0, err
			}
		}
		if err := tr.timed("store.Open", parent, 1, func() (err error) {
			st, err = store.Open(dir)
			return err
		}); err != nil {
			return 0, fmt.Errorf("probe: open %s: %w", dir, err)
		}
	}
	defer st.Close()
	if st.Len() == 0 {
		return 0, fmt.Errorf("probe: store %s is empty", dir)
	}
	recs := make([]store.Record, 0, len(hashes))
	for _, h := range hashes {
		var rec store.Record
		var found bool
		if err := tr.timed("store.Get", parent, 1, func() (err error) {
			rec, found, err = st.Get(h)
			return err
		}); err != nil {
			return 0, err
		}
		if !found {
			return 0, fmt.Errorf("probe: served cell %s is not in %s", h, dir)
		}
		recs = append(recs, rec)
	}
	dst, err := store.Open(putDir)
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		if err := tr.timed("store.Put", parent, 1, func() error {
			return dst.Put(rec.Hash, rec.Key, rec.Value)
		}); err != nil {
			dst.Close()
			return 0, err
		}
	}
	if err := dst.Close(); err != nil {
		return 0, err
	}
	return float64(st.Bytes()) / float64(st.Len()), nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
