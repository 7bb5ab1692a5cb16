package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
)

// workloadRun is one workload made concrete for a seed.
type workloadRun struct {
	name      string
	clients   int
	cluster   bool
	requests  []api.SweepRequest
	cells     []int      // cells each request expands to
	distinct  []api.Cell // every distinct cell the requests name
	executed  []api.Cell // cells the daemons must simulate
	template  string     // populated store copied into each pass ("" = empty store)
	minPasses int
}

// minSetups is the fewest daemon start-ups a run times; setup_s is their
// median. setupsPerPass start-up-only deployments follow each pass.
const (
	minSetups     = 21
	setupsPerPass = 2
)

func newWorkload(name string, seed int64, work string) (*workloadRun, error) {
	switch name {
	case wlCold, wlCluster:
		purpose := "cold-sweep"
		if name == wlCluster {
			purpose = "cluster-sweep"
		}
		req := bulkSweep(seed, purpose)
		_, _, wire, err := api.ExpandCells(req)
		if err != nil {
			return nil, err
		}
		return &workloadRun{
			name: name, clients: 1, cluster: name == wlCluster,
			requests: []api.SweepRequest{req}, cells: []int{len(wire)},
			distinct: wire, executed: wire, minPasses: 2,
		}, nil
	case wlService:
		plan := serviceMixed(seed)
		// Enough passes that the pooled latencies hold 1000 sweeps, so p99
		// leaves at least 10 samples beyond it.
		w := &workloadRun{name: name, clients: simThreads, requests: plan.Sweeps,
			minPasses: (1000 + len(plan.Sweeps) - 1) / len(plan.Sweeps)}
		seen := make(map[string]bool)
		_, _, pop, err := api.ExpandCells(plan.Population)
		if err != nil {
			return nil, err
		}
		inPop := make(map[string]bool)
		for _, c := range pop {
			inPop[cellKey(c)] = true
		}
		for _, req := range plan.Sweeps {
			_, _, wire, err := api.ExpandCells(req)
			if err != nil {
				return nil, err
			}
			w.cells = append(w.cells, len(wire))
			for _, c := range wire {
				if k := cellKey(c); !seen[k] {
					seen[k] = true
					w.distinct = append(w.distinct, c)
					if !inPop[k] {
						w.executed = append(w.executed, c)
					}
				}
			}
		}
		w.template = filepath.Join(work, "population")
		fmt.Fprintf(os.Stderr, "perfbench: populating the store with %d cells (untimed)\n", len(pop))
		if err := populate(w.template, plan.Population); err != nil {
			return nil, err
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// populate simulates req in process straight into a new store at dir.
func populate(dir string, req api.SweepRequest) error {
	specs, _, _, err := api.ExpandCells(req)
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	e := sim.NewExperiments()
	e.Instructions, e.Warmup = req.Instructions, req.Warmup
	e.Workers = simThreads
	e.Store = st
	outs, err := e.RunCells(specs)
	if cerr := e.Close(); err == nil {
		err = cerr
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("populate: %w", err)
	}
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("populate %s: %v", o.Key, o.Err)
		}
	}
	return nil
}

// passOut is one pass: a fresh deployment, the workload's requests, and
// the deployment torn down again.
type passOut struct {
	traced  bool
	setupS  float64
	wallS   float64
	rssMB   float64
	cpuS    float64 // CPU seconds the simulating daemons spent during the pass
	obs     []sweepObs
	served  *pass
	deltas  map[string]float64 // /metrics counter deltas summed over daemons
	entryDB string             // store directory of the daemon clients talk to
}

type bench struct {
	cfg    runConfig
	bin    string
	work   string
	wl     *workloadRun
	tr     *tracer
	passes []*passOut
	setups []float64

	attempted, failed int
	errs              []string
}

// deployment is the running set of daemons for one pass.
type deployment struct {
	all   []*daemon
	entry *daemon
	sims  []*daemon
	dir   string
}

// deploy prepares fresh stores under dir and starts the workload's
// daemons, returning once every /healthz answers ok, with the start-up
// time (launch to healthy). Copying the populated template is untimed.
func (b *bench) deploy(ctx context.Context, dir string) (*deployment, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	d := &deployment{dir: dir}
	if b.wl.template != "" {
		if err := copyDir(b.wl.template, filepath.Join(dir, "store")); err != nil {
			return nil, 0, err
		}
	}
	hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	t0 := time.Now()
	if b.wl.cluster {
		for i := 1; i <= simThreads; i++ {
			w, err := startDaemon(b.bin, "worker", filepath.Join(dir, fmt.Sprintf("worker%d", i)), "-workers", "1")
			if err != nil {
				d.kill()
				return nil, 0, err
			}
			d.all = append(d.all, w)
			d.sims = append(d.sims, w)
		}
		// The coordinator needs its workers' addresses, which each worker
		// reports once it serves.
		var urls []string
		for _, w := range d.sims {
			if err := w.waitListening(hctx); err != nil {
				d.kill()
				return nil, 0, err
			}
			urls = append(urls, w.url())
		}
		c, err := startDaemon(b.bin, "coordinator", filepath.Join(dir, "coordinator"),
			"-coordinator", "-cluster", strings.Join(urls, ","))
		if err != nil {
			d.kill()
			return nil, 0, err
		}
		d.all = append(d.all, c)
		d.entry = c
	} else {
		l, err := startDaemon(b.bin, "leakd", filepath.Join(dir, "store"), "-workers", fmt.Sprint(simThreads))
		if err != nil {
			return nil, 0, err
		}
		d.all = []*daemon{l}
		d.sims = d.all
		d.entry = l
	}
	if err := waitHealthy(hctx, d.all); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(t0).Seconds(), nil
}

// stop drains the entry daemon first, so a coordinator never sees its
// workers vanish mid-drain.
func (d *deployment) stop() error {
	var first error
	for i := len(d.all) - 1; i >= 0; i-- {
		if err := d.all[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// kill stops every daemon at once without a drain, for start-up-only
// deployments and failed start-ups.
func (d *deployment) kill() error {
	var first error
	for _, dm := range d.all {
		if err := dm.kill(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (b *bench) scrapeAll(ctx context.Context, d *deployment) ([]promSample, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	out := make([]promSample, len(d.all))
	for i, dm := range d.all {
		s, err := scrape(ctx, hc, dm.url())
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func cpuOf(ds []*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		s, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// runPass runs the workload's requests once against a fresh deployment.
func (b *bench) runPass(ctx context.Context, i int, traced bool) (*passOut, error) {
	dep, setup, err := b.deploy(ctx, filepath.Join(b.work, fmt.Sprintf("pass%d", i)))
	if err != nil {
		return nil, err
	}
	out, err := b.drive(ctx, dep, traced)
	if serr := dep.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	out.setupS = setup
	return out, nil
}

func (b *bench) drive(ctx context.Context, dep *deployment, traced bool) (*passOut, error) {
	out := &passOut{traced: traced, served: newPass(), entryDB: dep.entry.store}
	before, err := b.scrapeAll(ctx, dep)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuOf(dep.sims)
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if traced {
		tr = b.tr
	}
	clients := make([]*api.Client, b.wl.clients)
	for i := range clients {
		clients[i] = newClient(dep.entry.url())
		defer clients[i].HTTP.CloseIdleConnections()
	}
	root := tr.begin("pass", -1, "")
	reqs := b.wl.requests
	out.obs = closedLoop(ctx, clients, reqs, b.wl.cells, out.served, tr, root)
	tr.end(root, int64(len(reqs)))

	var first, last time.Time
	for i, o := range out.obs {
		b.attempted += b.wl.cells[i]
		b.failed += o.FailCells
		if o.Err != nil && len(b.errs) < 5 {
			b.errs = append(b.errs, o.Err.Error())
		}
		if first.IsZero() || o.Posted.Before(first) {
			first = o.Posted
		}
		end := o.Terminal
		if end.IsZero() {
			end = o.Admitted
		}
		if end.After(last) {
			last = end
		}
	}
	out.wallS = last.Sub(first).Seconds()

	cpu1, err := cpuOf(dep.sims)
	if err != nil {
		return nil, err
	}
	out.cpuS = cpu1 - cpu0
	after, err := b.scrapeAll(ctx, dep)
	if err != nil {
		return nil, err
	}
	out.deltas = make(map[string]float64)
	for i := range dep.all {
		d, err := promDelta(before[i], after[i], families, dep.all[i] != dep.entry || !b.wl.cluster)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", dep.all[i].role, err)
		}
		for k, v := range d {
			out.deltas[k] += v
		}
	}
	for _, dm := range dep.all {
		rss, err := dm.peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.rssMB = math.Max(out.rssMB, rss)
	}
	return out, nil
}

// measure runs passes until the time budget is spent (at least
// minPasses), alternating untraced and traced passes in a traced run.
// Start-up-only deployments between passes spread the start-up samples
// over the run; the last ones top the count up to minSetups.
func (b *bench) measure(ctx context.Context) error {
	start := time.Now()
	budget := time.Duration(b.cfg.seconds * float64(time.Second))
	var last time.Duration
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if i >= b.wl.minPasses && elapsed+last > budget {
			break
		}
		t := time.Now()
		p, err := b.runPass(ctx, i, b.cfg.trace && i%2 == 1)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: pass %d (traced=%v): setup %.4fs wall %.4fs\n", i, p.traced, p.setupS, p.wallS)
		b.passes = append(b.passes, p)
		b.setups = append(b.setups, p.setupS)
		if err := b.startOnly(ctx, setupsPerPass); err != nil {
			return err
		}
		last = time.Since(t)
	}
	if err := b.startOnly(ctx, minSetups-len(b.setups)); err != nil {
		return err
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: request failed:", e)
	}
	return nil
}

// startOnly times n deployments that are started and stopped again.
func (b *bench) startOnly(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		k := len(b.setups)
		dep, setup, err := b.deploy(ctx, filepath.Join(b.work, fmt.Sprintf("setup%d", k)))
		if err != nil {
			return fmt.Errorf("start-up sample %d: %w", k, err)
		}
		if err := dep.kill(); err != nil {
			return err
		}
		if err := os.RemoveAll(dep.dir); err != nil {
			return err
		}
		b.setups = append(b.setups, setup)
	}
	return nil
}

// gate is the correctness check: every pass served the same bytes, the
// digest matches its pin at a recorded seed, and a seeded sample of cells
// recomputed in process with no store is byte-equal to what was served.
func (b *bench) gate() error {
	ref := b.passes[0].served
	for i, p := range b.passes {
		if p.served.err != nil {
			return fmt.Errorf("pass %d: %w", i, p.served.err)
		}
		if i > 0 {
			if err := samePass(ref.values, p.served.values); err != nil {
				return fmt.Errorf("pass %d: %w", i, err)
			}
		}
	}
	if len(ref.values) != len(b.wl.distinct) {
		return fmt.Errorf("served %d distinct cells, requested %d", len(ref.values), len(b.wl.distinct))
	}
	d := digest(ref.values)
	p, err := loadPins()
	if err != nil {
		return err
	}
	pinned, err := p.check(b.wl.name, b.cfg.seed, d)
	if err != nil {
		return err
	}
	note := "no pin for this seed"
	if pinned {
		note = "matches its pin"
	}
	fmt.Printf("%-14s digest %s over %d cells (%s)\n", b.wl.name, d, len(ref.values), note)

	nAttack := 0
	if b.wl.name == wlService {
		nAttack = 2
	}
	sample := gateSample(b.cfg.seed, b.wl.distinct, 3, nAttack)
	rec, recHashes, err := recompute(sample)
	if err != nil {
		return err
	}
	if err := compareServed(rec, recHashes, ref.cells, ref.values); err != nil {
		return err
	}
	fmt.Printf("%-14s recomputed %d sampled cells in process: byte-equal\n", b.wl.name, len(sample))
	return nil
}

// endToEnd fills the end-to-end metrics from the untraced passes.
func (b *bench) endToEnd(ms map[string]metric) {
	var walls, instr, cells, rss, lat []float64
	for _, p := range b.passes {
		if p.traced {
			continue
		}
		walls = append(walls, p.wallS)
		instr = append(instr, p.deltas["sim_instructions_total"]/p.wallS)
		done := 0
		for _, o := range p.obs {
			done += o.Cells - o.FailCells
			if o.Err == nil {
				lat = append(lat, float64(o.latency())/float64(time.Millisecond))
			}
		}
		cells = append(cells, float64(done)/p.wallS)
		rss = append(rss, p.rssMB)
	}
	ms["setup_s"] = metric{median(b.setups), "s"}
	ms["wall_s"] = metric{median(walls), "s"}
	ms["sim_instr_per_s"] = metric{median(instr), "1/s"}
	ms["cells_per_s"] = metric{median(cells), "1/s"}
	ms["peak_rss_mb"] = metric{median(rss), "MiB"}
	ms["sweep_p50_ms"] = metric{nearestRank(lat, 50), "ms"}
	ms["sweep_p99_ms"] = metric{nearestRank(lat, 99), "ms"}
	note := "the largest sample (too few sweeps for a percentile with 10 beyond it)"
	if p, ok := tailPercentile(len(lat)); ok {
		note = tailLabel(p) + " is the highest percentile with at least 10 samples beyond it"
	}
	fmt.Printf("%-14s %d untraced passes, %d start-ups, %d sweep latencies; sweep_p99_ms reads %s\n",
		b.wl.name, len(walls), len(b.setups), len(lat), note)
}

// copyDir copies a store directory tree (regular files only).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
