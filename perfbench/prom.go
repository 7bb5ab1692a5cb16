package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one scrape of a daemon's /metrics: family name to value.
// leakd exposes only unlabelled counters and gauges.
type promSample map[string]float64

// parseProm parses Prometheus text exposition. Comment lines are
// skipped; a sample line with labels or an unparsable value is an error,
// so a format change cannot silently zero a metric.
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || strings.ContainsAny(f[0], "{}") {
			return nil, fmt.Errorf("metrics: unexpected sample line %q", line)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %s: %w", f[0], err)
		}
		out[f[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: read: %w", err)
	}
	return out, nil
}

func scrape(ctx context.Context, hc *http.Client, base string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}

// Counter families every leakd process (worker or coordinator) must
// expose after a workload; one binary registers them all. A family
// missing from the after-scrape fails the run. Families marked lazy are
// registered on first use (the D-cache counters appear with the first
// simulated cell), so only they may be absent before.
var (
	families = []string{
		"sim_instructions_total",
		"trace_cache_hits_total", "trace_cache_misses_total",
		"sim_stage_tick_ns_total", "sim_stage_commit_ns_total", "sim_stage_issue_ns_total",
		"sim_stage_dispatch_ns_total", "sim_stage_fetch_ns_total", "sim_stage_sampled_cycles_total",
		"sim_front_fill_trace_total", "sim_front_fill_live_total",
		"sim_batch_groups_total", "sim_batch_lanes_total", "sim_batch_scalar_fallback_total",
		"harness_worker_busy_ms_total", "harness_runs_failed_total",
		"store_hits_total", "store_misses_total",
		"server_sweeps_rejected_total",
		"cluster_shards_dispatched_total", "cluster_steals_total",
		"leakctl_dl1_l2_ns_total", "leakctl_dl1_l2_sampled_misses_total",
	}
	lazyFamilies = map[string]bool{
		"leakctl_dl1_l2_ns_total":             true,
		"leakctl_dl1_l2_sampled_misses_total": true,
	}
)

// promDelta returns after-before for each named family. A family absent
// from after, or absent from before without being lazy, is an error;
// a daemon that never simulates (the coordinator) may lack the lazy
// families altogether.
func promDelta(before, after promSample, families []string, simulates bool) (map[string]float64, error) {
	out := make(map[string]float64, len(families))
	for _, fam := range families {
		a, ok := after[fam]
		if !ok {
			if lazyFamilies[fam] && !simulates {
				continue
			}
			return nil, fmt.Errorf("metrics: family %s missing from /metrics", fam)
		}
		b, ok := before[fam]
		if !ok && !lazyFamilies[fam] {
			return nil, fmt.Errorf("metrics: family %s missing from the before-scrape", fam)
		}
		out[fam] = a - b
	}
	return out, nil
}
