// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds cmd/leakd and this program, then runs
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// from the root of a checkout. It starts real leakd processes as the
// system under test, drives them over HTTP through api.Client from this
// one process, checks that what they served is bit-identical to an
// in-process recomputation, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 a traced run measures
// each layer and prints the per-layer set, writing its spans under
// .bench_build/spans. METRICS.md documents every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// simThreads is the simulation thread count of every deployment: one
// leakd with two workers, or two cluster workers with one each.
const simThreads = 2

// runDeadline bounds one run; the harness contract allows 180 s.
const runDeadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 20, "measurement budget in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		leakd   = flag.String("leakd", filepath.Join(".bench_build", "leakd"), "leakd binary under test")
		spread  = flag.Bool("spread", false, "instead of running, read result JSON files named as arguments and print each metric's median and quartile spread")
	)
	flag.Parse()
	if *spread {
		if err := printSpread(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.Exit(1)
	}()

	res, err := run(runConfig{workload: *wlName, seed: *seed, seconds: *seconds, trace: *traced == 1, leakd: *leakd})
	killAll()
	if err != nil && res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", merr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	leakd    string
}

// run executes one benchmark run. A nil result with an error means the
// run could not measure at all; a result with Correct false means the
// correctness gate failed.
func run(cfg runConfig) (*result, error) {
	bin, err := filepath.Abs(cfg.leakd)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("leakd binary: %w", err)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	w, err := newWorkload(cfg.workload, cfg.seed, work)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, bin: bin, work: work, wl: w, tr: &tracer{on: cfg.trace}}
	if err := b.measure(ctx); err != nil {
		return nil, err
	}
	gateErr := b.gate()
	res := &result{Correct: gateErr == nil, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if cfg.trace {
		if err := b.layers(ctx, res.Metrics); err != nil {
			return nil, err
		}
	} else {
		b.endToEnd(res.Metrics)
	}
	b.report(res.Metrics)
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	if err := checkMetrics(spec, cfg.trace, res.Metrics); err != nil {
		return nil, err
	}
	if gateErr == nil {
		// Keep a failing run's stores and logs for inspection.
		if err := os.RemoveAll(work); err != nil {
			return nil, err
		}
	}
	return res, gateErr
}

// report prints one line per metric, sorted, before the JSON line.
func (b *bench) report(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-14s %-28s %14.6g %s\n", b.cfg.workload, n, ms[n].Value, ms[n].Unit)
	}
}
