package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotleakage/internal/server/api"
)

// errRefused marks a submission the daemon turned away with 429.
var errRefused = errors.New("sweep refused: 429 Too Many Requests")

// refuseOverload turns a 429 into a transport error. api.Client's
// SubmitSweep otherwise waits out Retry-After and resubmits, which would
// hide admission control from the failure count.
type refuseOverload struct{ base http.RoundTripper }

func (t refuseOverload) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		resp.Body.Close()
		return nil, errRefused
	}
	return resp, err
}

// newClient builds one load-generator client: a single connection, one
// attempt per call and no circuit breaker, so a 5xx, a refusal or a
// dropped connection counts as a failure instead of being retried out of
// sight.
func newClient(base string) *api.Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &api.Client{
		Base:  base,
		HTTP:  &http.Client{Transport: refuseOverload{tr}},
		Retry: api.RetryPolicy{Attempts: 1},
	}
}

// sweepObs is what the load generator saw of one sweep.
type sweepObs struct {
	ID        string
	Cells     int       // cells the request expands to
	Posted    time.Time // POST sent
	Admitted  time.Time // POST answered
	Terminal  time.Time // terminal SSE event read
	Status    api.SweepStatus
	FailCells int // failed cells, or every cell of a failed request
	Err       error
}

// latency is POST to terminal event.
func (o sweepObs) latency() time.Duration { return o.Terminal.Sub(o.Posted) }

// pass collects the cell values served during one pass, by content
// address, checking that a hash never comes back with different bytes.
type pass struct {
	mu     sync.Mutex
	values map[string][]byte
	cells  map[string]string // wire-cell key -> hash
	err    error
}

func newPass() *pass {
	return &pass{values: make(map[string][]byte), cells: make(map[string]string)}
}

// seen maps cell to hash and reports whether the hash's value is already
// downloaded.
func (p *pass) seen(cell api.Cell, hash string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mapCellLocked(cell, hash)
	_, ok := p.values[hash]
	return ok
}

func (p *pass) record(cell api.Cell, hash string, value []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mapCellLocked(cell, hash)
	if prev, ok := p.values[hash]; ok && string(prev) != string(value) && p.err == nil {
		p.err = fmt.Errorf("cell %s served two different values", hash)
	}
	p.values[hash] = value
}

func (p *pass) mapCellLocked(cell api.Cell, hash string) {
	if prev, ok := p.cells[cellKey(cell)]; ok && prev != hash && p.err == nil {
		p.err = fmt.Errorf("cell %s resolved to two content addresses", cellKey(cell))
	}
	p.cells[cellKey(cell)] = hash
}

func cellKey(c api.Cell) string {
	return fmt.Sprintf("%s|%s|%s|%d|%s|%d", c.Kind, c.Bench, c.Scenario, c.L2, strings.ToLower(c.Technique), c.Interval)
}

// runSweep submits req, times it to the terminal SSE event, confirms the
// final state with one GET and downloads every done cell the pass has not
// seen yet. Spans go to tr under parent.
func runSweep(ctx context.Context, c *api.Client, req api.SweepRequest, cells int, p *pass, tr *tracer, parent int) sweepObs {
	o := sweepObs{Cells: cells}
	root := tr.begin("sweep", parent, "")
	defer func() { tr.endSweep(root, o.ID) }()

	o.Posted = time.Now()
	sp := tr.begin("server.admit", root, "")
	st, err := c.SubmitSweep(ctx, req)
	o.Admitted = time.Now()
	tr.end(sp, 1)
	if err != nil {
		o.Err, o.FailCells = fmt.Errorf("submit: %w", err), cells
		return o
	}
	o.ID = st.ID

	sp = tr.begin("client.stream", root, o.ID)
	o.Terminal, err = awaitTerminal(ctx, c, st.ID)
	tr.end(sp, 1)
	if err != nil {
		o.Err, o.FailCells = fmt.Errorf("sweep %s: %w", st.ID, err), cells
		return o
	}

	sp = tr.begin("client.status", root, o.ID)
	o.Status, err = c.Sweep(ctx, st.ID)
	tr.end(sp, 1)
	if err != nil {
		o.Err, o.FailCells = fmt.Errorf("sweep %s status: %w", st.ID, err), cells
		return o
	}
	if !api.Terminal(o.Status.State) {
		o.Err, o.FailCells = fmt.Errorf("sweep %s: terminal event but state %q", st.ID, o.Status.State), cells
		return o
	}
	tr.serverSpans(root, o.ID, o.Status)

	sp = tr.begin("client.cells", root, o.ID)
	fetched := 0
	for _, cs := range o.Status.Cells {
		if cs.State != "done" || cs.Hash == "" {
			o.FailCells++
			continue
		}
		if p.seen(cs.Cell, cs.Hash) {
			continue
		}
		rec, err := c.Cell(ctx, cs.Hash)
		if err != nil {
			o.Err = fmt.Errorf("sweep %s: fetch cell %s: %w", st.ID, cs.Hash, err)
			o.FailCells++
			continue
		}
		p.record(cs.Cell, cs.Hash, rec.Value)
		fetched++
	}
	tr.end(sp, int64(fetched))
	if missing := cells - len(o.Status.Cells); missing > 0 {
		o.FailCells += missing
	}
	if o.Status.State != api.StateCompleted && o.FailCells == 0 {
		o.FailCells = cells
	}
	return o
}

// awaitTerminal reads the sweep's SSE stream until its terminal event and
// returns the moment that event arrived, then drains the stream so the
// connection can be reused.
func awaitTerminal(ctx context.Context, c *api.Client, id string) (time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return time.Time{}, err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return time.Time{}, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return time.Time{}, fmt.Errorf("events: %s", resp.Status)
	}
	var at time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		ev, ok := strings.CutPrefix(sc.Text(), "event: ")
		if !ok || at != (time.Time{}) {
			continue
		}
		switch ev {
		case "sweep_" + api.StateCompleted, "sweep_" + api.StateFailed, "sweep_" + api.StateCanceled:
			at = time.Now()
		}
	}
	if err := sc.Err(); err != nil {
		return time.Time{}, fmt.Errorf("events: %w", err)
	}
	if at.IsZero() {
		return time.Time{}, errors.New("event stream ended without a terminal event")
	}
	return at, nil
}

// closedLoop drives reqs (expanding to cells[i] cells each) through
// clients: each client sends its next request only after its previous
// one completed, taking requests from a shared queue in order.
func closedLoop(ctx context.Context, clients []*api.Client, reqs []api.SweepRequest, cells []int, p *pass, tr *tracer, parent int) []sweepObs {
	obs := make([]sweepObs, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *api.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				obs[i] = runSweep(ctx, c, reqs[i], cells[i], p, tr, parent)
			}
		}(c)
	}
	wg.Wait()
	return obs
}
