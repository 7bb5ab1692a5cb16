package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/obs"
	"hotleakage/internal/server"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
)

var (
	obsShards       = obs.Default.Counter(obs.MetricClusterShards)
	obsSteals       = obs.Default.Counter(obs.MetricClusterSteals)
	obsReshards     = obs.Default.Counter(obs.MetricClusterReshards)
	obsWorkerDeaths = obs.Default.Counter(obs.MetricClusterWorkerDeaths)
	obsCellsAcked   = obs.Default.Counter(obs.MetricClusterCellsAcked)
	obsWorkersAlive = obs.Default.Gauge(obs.GaugeClusterWorkersAlive)
)

// Config parameterizes a coordinator. Workers is required; admission,
// defaults, the watchdog and everything else HTTP-facing belong to the
// server.Config the coordinator is mounted in.
type Config struct {
	// Workers lists the worker daemons' addresses ("host:port" or URLs).
	Workers []string
	// ShardRetries caps how many times one shard's cells are re-dispatched
	// after worker deaths before the cells are failed (default 2).
	ShardRetries int
	// Dial builds the per-worker client (default api.NewClient, which
	// carries the retry policy and circuit breaker).
	Dial func(addr string) *api.Client
}

// Coordinator is the ring-sharded server.Executor: it resolves a sweep's
// cells through the server's store, shards the rest over the workers and
// acks every produced cell back into that store. Mounted as the executor
// of a server.Server, the cluster serves the single-worker HTTP surface,
// so api.Client and leakbench -remote work against it unchanged.
type Coordinator struct {
	cfg  Config
	ring *Ring

	workers map[string]*worker

	costsOnce sync.Once
	mu        sync.Mutex
	costs     map[string]float64 // EWMA ns/instr by bench+"/"+technique
}

// worker is one member daemon.
type worker struct {
	addr   string
	client *api.Client

	mu   sync.Mutex
	dead bool
}

func (w *worker) isDead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dead
}

// markDead flips the worker to dead; reports whether this call did it.
func (w *worker) markDead() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead {
		return false
	}
	w.dead = true
	return true
}

// New builds a coordinator over cfg and connects its worker clients.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: Config.Workers is empty")
	}
	if cfg.ShardRetries <= 0 {
		cfg.ShardRetries = 2
	}
	if cfg.Dial == nil {
		cfg.Dial = api.NewClient
	}
	c := &Coordinator{
		cfg:     cfg,
		ring:    NewRing(DefaultReplicas),
		workers: make(map[string]*worker, len(cfg.Workers)),
		costs:   make(map[string]float64),
	}
	for _, addr := range cfg.Workers {
		if _, dup := c.workers[addr]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker %q", addr)
		}
		c.workers[addr] = &worker{addr: addr, client: cfg.Dial(addr)}
		c.ring.Add(addr)
	}
	obsWorkersAlive.Set(int64(len(c.workers)))
	return c, nil
}

// csweep is one sweep's dispatch state. Cells of both kinds (energy and
// attack) travel in wire form: api.Cell carries everything the shard
// scheduler needs, and shards ship to workers verbatim, so the
// coordinator never branches on kind outside hashing and key derivation.
type csweep struct {
	*server.Job
	ctx    context.Context
	hashes []string // content address per cell ("" when uncomputable)

	mu       sync.Mutex
	executed int    // cells the workers simulated, for the cost model
	storeErr string // first failed write to the coordinator store
}

// Run implements server.Executor. It returns a run error when the sweep
// was canceled or no cell at all could be produced, and a degraded reason
// when cells were lost to worker deaths or the store refused writes.
func (c *Coordinator) Run(ctx context.Context, job *server.Job) (string, error) {
	// Warm the shard scheduler's cost model from the store's meta segment,
	// the same EWMA the workers persist.
	c.costsOnce.Do(func() {
		var persisted map[string]float64
		if ok, err := job.Store.GetMeta(sim.CostModelMetaKey, &persisted); err == nil && ok {
			for k, v := range persisted {
				if v > 0 {
					c.costs[k] = v
				}
			}
		}
	})
	sw := &csweep{Job: job, ctx: ctx, hashes: cellHashes(job)}
	started := time.Now()

	// Coordinator store pass: anything any worker ever acked (or a prior
	// sweep stored) is served without dispatch.
	pending := make([]int, 0, len(sw.Cells))
	for i, h := range sw.hashes {
		if h != "" {
			if _, ok, err := sw.Store.Get(h); err == nil && ok {
				sw.Done(i, h)
				sw.Count(server.Tally{StoreHits: 1})
				sw.Events.Write(obs.Record{Type: "store_hit", RunID: wireKey(sw.Cells[i])})
				continue
			}
		}
		pending = append(pending, i)
	}
	if len(pending) > 0 {
		c.dispatch(sw, pending)
	}
	c.foldCostModel(sw, started)

	// Verdict. Worker deaths that re-sharded cleanly leave no trace here;
	// cells failed by exhausted shard retries make the sweep
	// degraded-complete (results that could be produced were; the rest are
	// reported honestly), and per-cell simulation failures mirror the
	// single-worker contract (completed with failed cells).
	if ctx.Err() != nil {
		return "", ctx.Err()
	}
	doneN, failedN, deaths := 0, 0, 0
	var firstFail string
	for i := range sw.Cells {
		switch o := sw.Outcome(i); o.State {
		case "done":
			doneN++
		case "failed":
			failedN++
			if firstFail == "" {
				firstFail = o.Error
			}
			if isDeathFailure(o.Error) {
				deaths++
			}
		}
	}
	if doneN == 0 && failedN == len(sw.Cells) {
		// Nothing at all could be produced — that is a failed sweep, not
		// a degraded-complete one.
		return "", errors.New(firstFail)
	}
	sw.mu.Lock()
	degraded := sw.storeErr
	sw.mu.Unlock()
	if deaths > 0 {
		sw.Degrade("worker deaths exhausted shard retries")
		if degraded == "" {
			degraded = fmt.Sprintf("%d cells lost to worker deaths after %d re-dispatch attempts",
				deaths, c.cfg.ShardRetries)
		}
	}
	return degraded, nil
}

// cellHashes computes every cell's content address up front (cheap: one
// SHA-256 of a small identity document per cell), so the ring, the store
// pass and the ack path share it without coordination. Cells is energy
// cells then attack cells, so the result indexes Cells directly.
func cellHashes(job *server.Job) []string {
	hashes := make([]string, len(job.Cells))
	for i, cs := range job.Specs {
		mc := sim.DefaultMachine(cs.L2)
		mc.Instructions = job.Instructions
		mc.Warmup = job.Warmup
		if h, err := sim.CellHash(mc, cs.Bench, cs.Technique, cs.Interval); err == nil {
			hashes[i] = h
		}
	}
	for j, as := range job.Attacks {
		sc, ok := attack.ByName(as.Scenario)
		if !ok {
			continue // ExpandCells validated; an unknown name still just dispatches unhashed
		}
		// Attack hashes ignore the instruction budget (scenario length is
		// fixed), so the default machine is the whole identity.
		if h, err := sim.AttackHash(sim.DefaultMachine(as.L2), sc, as.Technique, as.Interval); err == nil {
			hashes[len(job.Specs)+j] = h
		}
	}
	return hashes
}

// FetchCell implements sim.CellFetcher over the live workers: the
// fallback of the coordinator's GET /v1/cells when its own store misses.
// Workers answer from their local store only, so there is no recursion.
func (c *Coordinator) FetchCell(ctx context.Context, hash string) (json.RawMessage, bool, error) {
	for _, addr := range c.ring.Nodes() {
		w := c.workers[addr]
		if w == nil || w.isDead() {
			continue
		}
		if val, hit, err := w.client.FetchCell(ctx, hash); err == nil && hit {
			return val, true, nil
		}
	}
	return nil, false, nil
}

// shardGroup is the dispatch atom: one (workload, L2) slice of the sweep —
// exactly the grouping the workers' lockstep batch phase wants, so a
// shard arrives at a worker as one batchable front. The workload is a
// benchmark for energy cells and an attack scenario for attack cells;
// the two never mix in one group (groupCells keys them apart), so a
// shard is always homogeneous in kind.
type shardGroup struct {
	bench    string
	l2       int
	idxs     []int  // indices into csweep.Cells
	key      string // ring position: the group's smallest cell hash
	attempts int
}

// isDeathFailure distinguishes shard-retry exhaustion from per-cell
// simulation failures when choosing the degraded verdict.
func isDeathFailure(msg string) bool {
	return strings.Contains(msg, "worker died") || strings.Contains(msg, "no live workers")
}

// dispatch shards pending cells over the ring and runs one runner per
// live worker until every shard is resolved. Runners prefer their own
// queue and steal from the most-loaded peer when idle; a worker death
// re-shards its queued and unacked work onto the survivors.
func (c *Coordinator) dispatch(sw *csweep, pending []int) {
	groups := c.groupCells(sw, pending)

	sc := &dispatchState{
		queues: make(map[string][]*shardGroup),
		dead:   make(map[string]bool),
	}
	sc.cond = sync.NewCond(&sc.mu)
	for addr, w := range c.workers {
		if w.isDead() {
			sc.dead[addr] = true
		}
	}

	// Initial assignment: ring owner, skipping already-dead workers.
	for _, g := range groups {
		owner, ok := c.ring.OwnerExcluding(g.key, sc.dead)
		if !ok {
			sw.failGroup(g, "no live workers")
			continue
		}
		sc.queues[owner] = append(sc.queues[owner], g)
		sc.outstanding++
	}
	if sc.outstanding == 0 {
		return
	}
	// Longest-estimated-first within each queue so stragglers start early
	// (the same longest-first heuristic the workers' own scheduler uses).
	for addr := range sc.queues {
		c.sortByCost(sw, sc.queues[addr])
	}

	var wg sync.WaitGroup
	for addr, w := range c.workers {
		if sc.dead[addr] {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.runner(sw, sc, w)
		}(w)
	}
	wg.Wait()

	// Shards nobody could run (every worker died) fail here rather than
	// hang.
	sc.mu.Lock()
	var orphans []*shardGroup
	for addr := range sc.queues {
		orphans = append(orphans, sc.queues[addr]...)
		sc.queues[addr] = nil
	}
	sc.mu.Unlock()
	for _, g := range orphans {
		sw.failGroup(g, "no live workers")
	}
}

// dispatchState is one sweep's shard scheduler.
type dispatchState struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queues      map[string][]*shardGroup
	dead        map[string]bool
	outstanding int // groups assigned or running, not yet resolved
}

// groupCells buckets pending cell indices into (workload, L2) shard
// groups, each keyed by its smallest cell hash for a deterministic ring
// position. Attack cells group by scenario with a kind prefix so an
// attack scenario can never share a shard with a like-named benchmark.
func (c *Coordinator) groupCells(sw *csweep, pending []int) []*shardGroup {
	byBL := make(map[string]*shardGroup)
	var order []string
	for _, i := range pending {
		cs := sw.Cells[i]
		name := cs.Bench
		if cs.Kind == api.KindAttack {
			name = "attack:" + cs.Scenario
		}
		bk := fmt.Sprintf("%s/%d", name, cs.L2)
		g, ok := byBL[bk]
		if !ok {
			g = &shardGroup{bench: name, l2: cs.L2}
			byBL[bk] = g
			order = append(order, bk)
		}
		g.idxs = append(g.idxs, i)
		h := sw.hashes[i]
		if h != "" && (g.key == "" || h < g.key) {
			g.key = h
		}
	}
	groups := make([]*shardGroup, 0, len(order))
	for _, bk := range order {
		g := byBL[bk]
		if g.key == "" {
			g.key = bk // unhashable cells still need a deterministic owner
		}
		groups = append(groups, g)
	}
	return groups
}

// estimate prices a group for the scheduler from the EWMA cost model.
func (c *Coordinator) estimate(sw *csweep, g *shardGroup) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0.0
	for _, i := range g.idxs {
		ns, ok := c.costs[costKey(sw.Cells[i])]
		if !ok {
			ns = 500 // prior: ~500 ns simulated per instruction
		}
		total += ns * float64(sw.Instructions)
	}
	return total
}

func (c *Coordinator) sortByCost(sw *csweep, gs []*shardGroup) {
	sort.SliceStable(gs, func(i, j int) bool {
		return c.estimate(sw, gs[i]) > c.estimate(sw, gs[j])
	})
}

// runner drains shards for one worker: its own queue first, then steals
// the most expensive queued shard from the most-loaded peer. It exits
// when its worker dies or no shard remains anywhere (queued or running —
// a running shard may still re-queue work on failure, so idle runners
// wait instead of exiting).
func (c *Coordinator) runner(sw *csweep, sc *dispatchState, w *worker) {
	for {
		sc.mu.Lock()
		for {
			if sc.dead[w.addr] || sc.outstanding == 0 || sw.ctx.Err() != nil {
				sc.mu.Unlock()
				return
			}
			if g := sc.takeLocked(w.addr); g != nil {
				sc.mu.Unlock()
				c.runGroup(sw, sc, w, g)
				break
			}
			sc.cond.Wait()
		}
	}
}

// takeLocked pops the next shard for addr: head of its own queue, else a
// steal from the longest peer queue.
func (sc *dispatchState) takeLocked(addr string) *shardGroup {
	if q := sc.queues[addr]; len(q) > 0 {
		sc.queues[addr] = q[1:]
		return q[0]
	}
	victim, best := "", 0
	for a, q := range sc.queues {
		if a != addr && !sc.dead[a] && len(q) > best {
			victim, best = a, len(q)
		}
	}
	if victim == "" {
		// Also steal from dead workers' queues (their runner is gone).
		for a, q := range sc.queues {
			if a != addr && len(q) > best {
				victim, best = a, len(q)
			}
		}
	}
	if victim == "" {
		return nil
	}
	q := sc.queues[victim]
	g := q[0]
	sc.queues[victim] = q[1:]
	obsSteals.Add(1)
	return g
}

// resolveLocked retires one shard from the scheduler's books.
func (sc *dispatchState) resolveLocked(n int) {
	sc.outstanding += n
	sc.cond.Broadcast()
}

// runGroup dispatches one shard to w as a sub-sweep, pipes its event
// stream into the sweep's events, acks each completed cell into the
// coordinator store, and on worker death re-shards the unacked remainder.
func (c *Coordinator) runGroup(sw *csweep, sc *dispatchState, w *worker, g *shardGroup) {
	obsShards.Add(1)
	sw.Events.Write(obs.Record{Type: "shard_dispatch", RunID: sw.ID,
		Detail: fmt.Sprintf("%s/L2=%d (%d cells) -> %s attempt %d", g.bench, g.l2, len(g.idxs), w.addr, g.attempts+1)})

	unacked, died, errMsg := c.runGroupOnce(sw, w, g)

	if !died {
		sc.mu.Lock()
		sc.resolveLocked(-1)
		sc.mu.Unlock()
		return
	}

	// Worker death. Take it out of the ring's eligible set, re-shard this
	// group's unacked remainder and everything still queued for it.
	if w.markDead() {
		obsWorkerDeaths.Add(1)
		obsWorkersAlive.Add(-1)
		sw.Degrade("worker " + w.addr + " died")
	}
	sw.Events.Write(obs.Record{Type: "worker_death", RunID: sw.ID, Error: errMsg, Detail: w.addr})

	sc.mu.Lock()
	sc.dead[w.addr] = true
	stranded := sc.queues[w.addr]
	delete(sc.queues, w.addr)

	requeue := func(ng *shardGroup) {
		owner, ok := c.ring.OwnerExcluding(ng.key, sc.dead)
		if !ok {
			sc.outstanding--
			sc.mu.Unlock()
			sw.failGroup(ng, "no live workers")
			sc.mu.Lock()
			return
		}
		sc.queues[owner] = append(sc.queues[owner], ng)
		obsReshards.Add(1)
		sw.Events.Write(obs.Record{Type: "shard_requeued", RunID: sw.ID,
			Detail: fmt.Sprintf("%s/L2=%d (%d cells) -> %s", ng.bench, ng.l2, len(ng.idxs), owner)})
	}

	// Queued (never-attempted) shards keep their attempt count.
	for _, qg := range stranded {
		requeue(qg)
	}
	// This shard's unacked cells burn an attempt; exhausted retries fail.
	if len(unacked) > 0 {
		ng := &shardGroup{bench: g.bench, l2: g.l2, idxs: unacked, key: g.key, attempts: g.attempts + 1}
		if ng.attempts > c.cfg.ShardRetries {
			sc.outstanding--
			sc.mu.Unlock()
			sw.failGroup(ng, fmt.Sprintf("worker died (%s); shard retries exhausted", errMsg))
			sc.mu.Lock()
		} else {
			requeue(ng)
		}
	} else {
		sc.outstanding--
	}
	sc.cond.Broadcast()
	sc.mu.Unlock()
}

// runGroupOnce runs one shard on one worker. It returns the cell indices
// that were not acked, whether the worker should be considered dead, and
// the transport error message when it is.
func (c *Coordinator) runGroupOnce(sw *csweep, w *worker, g *shardGroup) (unacked []int, died bool, errMsg string) {
	req := api.SweepRequest{
		Instructions: sw.Instructions,
		Warmup:       sw.Warmup,
		Priority:     sw.Priority,
	}
	byKey := make(map[string]int, len(g.idxs)) // wire key -> sweep index
	for _, i := range g.idxs {
		wc := sw.Cells[i]
		req.Cells = append(req.Cells, wc)
		byKey[wireKey(wc)] = i
	}

	st, err := w.client.SubmitSweep(sw.ctx, req)
	if err != nil {
		return g.idxs, sw.deathError(err), err.Error()
	}

	// Follow the worker's event stream into the sweep's events until the
	// shard finishes. Worker sweep_* lifecycle records are dropped (the
	// server owns the sweep lifecycle); everything else — run_start,
	// run_done, store_hit, checkpoint_hit — flows through so the client
	// sees per-cell progress across the whole cluster in one stream.
	final, err := w.client.WatchSweep(sw.ctx, st.ID, func(rec obs.Record) {
		if !strings.HasPrefix(rec.Type, "sweep_") {
			sw.Events.Write(rec)
		}
	})
	if err != nil {
		return g.idxs, sw.deathError(err), err.Error()
	}
	if final.State == api.StateCanceled {
		if sw.ctx.Err() == nil {
			// The worker canceled the shard on its own (it is draining):
			// treat it like a death so the cells re-shard onto survivors.
			return g.idxs, true, "worker canceled shard (draining)"
		}
		return g.idxs, false, ""
	}
	if final.State == api.StateFailed {
		// The worker is alive and answered: the shard failed for real
		// (watchdog, harness error), so its cells fail honestly.
		msg := final.Error
		if msg == "" {
			msg = "worker sweep failed"
		}
		for _, i := range g.idxs {
			sw.Fail(i, sw.hashes[i], msg)
		}
		return nil, false, ""
	}

	// Completed (possibly with per-cell failures). Ack every done cell:
	// fetch its stored value from the worker and persist it into the
	// coordinator store (first-write-wins absorbs duplicates from steals
	// or re-shard races).
	acked := make(map[int]bool, len(g.idxs))
	for _, cellSt := range final.Cells {
		i, ok := byKey[wireKey(cellSt.Cell)]
		if !ok {
			continue
		}
		switch {
		case cellSt.State == "done" && cellSt.Hash != "":
			if sw.hashes[i] != "" && cellSt.Hash != sw.hashes[i] {
				sw.Fail(i, sw.hashes[i], fmt.Sprintf("worker returned hash %s, coordinator computed %s",
					cellSt.Hash, sw.hashes[i]))
				acked[i] = true // resolved (as a failure); not re-dispatchable
				continue
			}
			rec, err := w.client.Cell(sw.ctx, cellSt.Hash)
			if err != nil {
				// Transport trouble on the ack fetch: the remainder of the
				// group re-shards.
				return remainder(g.idxs, acked), sw.deathError(err), err.Error()
			}
			if perr := sw.Store.Put(rec.Hash, rec.Key, rec.Value); perr != nil {
				sw.Degrade("store trouble: " + perr.Error())
				sw.mu.Lock()
				if sw.storeErr == "" {
					sw.storeErr = perr.Error()
				}
				sw.mu.Unlock()
			}
			sw.Done(i, cellSt.Hash)
			acked[i] = true
			obsCellsAcked.Add(1)
		case cellSt.State == "failed":
			sw.Fail(i, sw.hashes[i], cellSt.Error)
			acked[i] = true
		}
	}
	sw.Count(server.Tally{Executed: final.Executed, StoreHits: final.StoreHits, Resumed: final.Resumed})
	sw.mu.Lock()
	sw.executed += final.Executed
	sw.mu.Unlock()
	// The worker's status omitted cells we sent: account them failed
	// rather than hanging the shard.
	for _, i := range remainder(g.idxs, acked) {
		sw.Fail(i, sw.hashes[i], "worker status omitted this cell")
	}
	return nil, false, ""
}

// deathError classifies a dispatch error: our own cancellation is not the
// worker's fault; anything else (transport errors, 5xx, breaker fast-fail
// after retries) counts as a death for re-shard purposes.
func (sw *csweep) deathError(err error) bool {
	if sw.ctx.Err() != nil {
		return false
	}
	var se *api.StatusError
	if errors.As(err, &se) && se.Code < 500 {
		return false
	}
	return true
}

func remainder(idxs []int, acked map[int]bool) []int {
	var rem []int
	for _, i := range idxs {
		if !acked[i] {
			rem = append(rem, i)
		}
	}
	return rem
}

func (sw *csweep) failGroup(g *shardGroup, msg string) {
	for _, i := range g.idxs {
		sw.Fail(i, sw.hashes[i], msg)
	}
}

// foldCostModel refreshes the persisted EWMA with this sweep's observed
// worker throughput so the next sweep's shard ordering is informed. The
// granularity is coarse (sweep wall-clock over executed cells) but
// self-correcting, like the workers' own model.
func (c *Coordinator) foldCostModel(sw *csweep, started time.Time) {
	sw.mu.Lock()
	executed := sw.executed
	sw.mu.Unlock()
	elapsed := time.Since(started)
	if executed == 0 || sw.Instructions == 0 || elapsed <= 0 {
		return
	}
	perCell := float64(elapsed.Nanoseconds()) / float64(executed) / float64(sw.Instructions)
	const alpha = 0.3
	c.mu.Lock()
	for i, wc := range sw.Cells {
		if sw.Outcome(i).State != "done" {
			continue
		}
		key := costKey(wc)
		if prev, seen := c.costs[key]; seen {
			c.costs[key] = (1-alpha)*prev + alpha*perCell
		} else {
			c.costs[key] = perCell
		}
	}
	snapshot := make(map[string]float64, len(c.costs))
	for k, v := range c.costs {
		snapshot[k] = v
	}
	c.mu.Unlock()
	_ = sw.Store.PutMeta(sim.CostModelMetaKey, snapshot)
}

// wireKey identifies a wire cell for matching worker statuses to sweep
// indices (the api package keeps its own key unexported). Attack cells
// get their own namespace so a scenario named like a benchmark can never
// match the wrong status row.
func wireKey(wc api.Cell) string {
	if wc.Kind == api.KindAttack {
		return fmt.Sprintf("attack/%s/%d/%s/%d", wc.Scenario, wc.L2, strings.ToLower(wc.Technique), wc.Interval)
	}
	return fmt.Sprintf("%s/%d/%s/%d", wc.Bench, wc.L2, strings.ToLower(wc.Technique), wc.Interval)
}

// costKey names a wire cell's row in the EWMA cost model. Energy cells
// keep the historic bench/technique keys the workers persist; attack
// cells get their own rows (their cost is scenario-shaped, not
// budget-shaped).
func costKey(wc api.Cell) string {
	if wc.Kind == api.KindAttack {
		return "attack:" + wc.Scenario + "/" + strings.ToLower(wc.Technique)
	}
	return wc.Bench + "/" + strings.ToLower(wc.Technique)
}
