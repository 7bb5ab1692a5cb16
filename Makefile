GO ?= go

# Seed-commit (b1ceed6) SimulatorThroughput rate in instr/s, measured on
# the same host interleaved with the current code (see EXPERIMENTS.md,
# "Simulator throughput tracking"). Override when re-baselining:
#   make bench BASELINE_INSTR_S=...
BASELINE_INSTR_S ?= 1990000

# Profile-guided optimization input for the bench targets: a checked-in
# CPU profile of the two tracked benchmarks (refresh via `make profile`
# and copy cpu.pprof over it when the hot paths move). The recorded
# BENCH_*.json numbers are PGO builds; `make test` and plain `go build`
# are not, so apples-to-apples comparisons must go through these targets.
# Set PGO=off to bench without it.
PGO ?= results/profiles/default.pgo

# bench-guard tolerance: fail when the fresh median is more than this many
# percent below the recorded BENCH_throughput.json median.
GUARD_TOL ?= 15

.PHONY: build test verify smoke-daemon smoke-cluster smoke-security chaos bench bench-throughput bench-sweep bench-batch bench-guard bench-all profile clean

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The verify tier: formatting (every tracked Go file must be gofmt-clean;
# the failing files are listed), static analysis plus the full suite under
# the race detector, and the perfbench module, which ./... does not reach
# (it has its own go.mod). Slower than `make test`; run before merging.
verify: build
	test -z "$$(gofmt -l $$(git ls-files '*.go'))" || { gofmt -l $$(git ls-files '*.go'); exit 1; }
	$(GO) vet ./...
	$(GO) test -race ./...
	cd perfbench && $(GO) vet . && $(GO) test .

# End-to-end daemon smoke: start leakd on a temp store, run a sweep over
# HTTP, require the warm resubmit to be 100% store hits, SIGTERM-drain.
smoke-daemon:
	./scripts/daemon_smoke.sh

# End-to-end cluster smoke: three workers plus a coordinator, kill -9 one
# worker mid-sweep and require completion with zero lost cells, then
# restart the dead worker with -peer and require a federated store hit.
# See DESIGN.md §13.
smoke-cluster:
	./scripts/cluster_smoke.sh

# End-to-end security smoke: run a tiny attack sweep (prime+probe channel
# cells) through a real leakd, require drowsy to leak strictly more than
# gated-Vss, the warm resubmit to be 100% store hits, and leakbench
# -attack -remote to report the same metric values. See DESIGN.md §14.
smoke-security:
	./scripts/security_smoke.sh

# Chaos tier: fault-injected store/server suites under the race detector,
# then the black-box chaos smoke (real leakd under an armed fault plane,
# kill -9 mid-sweep, restart-recovery, GC reclamation, bit-identical
# results vs a fault-free reference). See DESIGN.md §11.
chaos:
	$(GO) test -race -run 'TestChaos|TestFault|TestGC|TestQuarantine|TestHub|TestSSE|TestPanic|TestSweepWatchdog|TestDegraded|TestHealthz|TestBreaker|TestRetry|TestFrontEnds' ./internal/store/ ./internal/server/... ./internal/cluster/ ./internal/harness/faultinject/
	./scripts/chaos_smoke.sh

bench: bench-throughput bench-sweep

# Simulator throughput: five samples of the committed-instruction rate,
# recorded with date and commit in BENCH_throughput.json for longitudinal
# comparison against the seed baseline.
# Note: the bench output is captured with a redirect, not `| tee` — a
# pipe would report the pipe's exit status and let a failing benchmark
# masquerade as a pass.
bench-throughput:
	$(GO) test -pgo=$(PGO) -run '^$$' -bench=SimulatorThroughput -count=5 . > bench_throughput.tmp || { cat bench_throughput.tmp; rm -f bench_throughput.tmp; exit 1; }
	cat bench_throughput.tmp
	awk -v date="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	    -v commit="$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
	    -v base="$(BASELINE_INSTR_S)" ' \
	  /instr\/s/ { v[n++] = $$(NF-1) } \
	  END { \
	    printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n", date, commit; \
	    printf "  \"benchmark\": \"BenchmarkSimulatorThroughput\",\n"; \
	    printf "  \"sample_rule\": \"compare medians; individual samples >15%% below the run median are shared-host load artifacts, not code regressions (see EXPERIMENTS.md, Simulator throughput tracking)\",\n"; \
	    printf "  \"instr_per_s\": ["; \
	    for (i = 0; i < n; i++) printf "%s%s", (i ? ", " : ""), v[i]; \
	    printf "],\n  \"baseline_commit\": \"b1ceed6\",\n"; \
	    printf "  \"baseline_instr_per_s\": %s\n}\n", base; \
	  }' bench_throughput.tmp > BENCH_throughput.json
	rm -f bench_throughput.tmp
	cat BENCH_throughput.json

# Sweep-level throughput: three samples of each SuiteSweep variant (full
# batched path / scalar supervisor path / no trace cache / one worker),
# recorded in BENCH_sweep.json. The benchmark round-robins all four
# variants inside every iteration (see BenchmarkSuiteSweep's methodology
# comment), so each count=3 sample yields one paired measurement of every
# variant under the same host conditions and the full-vs-disabled ratios
# are a like-for-like measurement of the batch executor, the trace cache
# and the scheduler.
bench-sweep:
	$(GO) test -pgo=$(PGO) -run '^$$' -bench=SuiteSweep -benchtime=1x -count=3 . > bench_sweep.tmp || { cat bench_sweep.tmp; rm -f bench_sweep.tmp; exit 1; }
	cat bench_sweep.tmp
	awk -v date="$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	    -v commit="$$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" ' \
	  /^BenchmarkSuiteSweep/ { \
	    for (i = 2; i <= NF; i++) if ($$i ~ /:instr\/s$$/) { \
	      name = $$i; sub(/:instr\/s$$/, "", name); \
	      if (!(name in v)) ord[no++] = name; \
	      v[name] = v[name] (v[name] ? ", " : "") $$(i-1); \
	    } \
	  } \
	  END { \
	    printf "{\n  \"date\": \"%s\",\n  \"commit\": \"%s\",\n", date, commit; \
	    printf "  \"benchmark\": \"BenchmarkSuiteSweep\",\n"; \
	    printf "  \"methodology\": \"one full Figure 8/9 regeneration (33 cells) per variant per iteration; full = batched lockstep execution (default), scalar = per-cell supervisor path; all four variants run inside each iteration in mirrored order with per-variant stopwatches after one untimed warmup sweep, 3 samples each, PGO build; see EXPERIMENTS.md, Sweep throughput tracking\",\n"; \
	    printf "  \"instr_per_s\": {"; \
	    for (i = 0; i < no; i++) printf "%s\n    \"%s\": [%s]", (i ? "," : ""), ord[i], v[ord[i]]; \
	    printf "\n  }\n}\n"; \
	  }' bench_sweep.tmp > BENCH_sweep.json
	rm -f bench_sweep.tmp
	cat BENCH_sweep.json

# Batched-vs-scalar regression guard: fail if the batched path is slower
# than the scalar path it replaced (median of 3 samples each). The
# variants are paired — SuiteSweep runs them inside the same iteration —
# so host drift cancels out of the ratio. CI runs this as its bench
# smoke; it is deliberately cheap (~1 min) rather than statistically
# deep — BENCH_sweep.json is the longitudinal record.
bench-batch:
	$(GO) test -pgo=$(PGO) -run '^$$' -bench=SuiteSweep -benchtime=1x -count=3 . > bench_batch.tmp || { cat bench_batch.tmp; rm -f bench_batch.tmp; exit 1; }
	cat bench_batch.tmp
	awk ' \
	  /^BenchmarkSuiteSweep/ { \
	    for (i = 2; i <= NF; i++) if ($$i ~ /:instr\/s$$/) { \
	      name = $$i; sub(/:instr\/s$$/, "", name); \
	      c[name]++; v[name, c[name]] = $$(i-1); \
	    } \
	  } \
	  function med(name,   n, a, b, t, i, j) { \
	    n = c[name]; \
	    for (i = 1; i <= n; i++) a[i] = v[name, i] + 0; \
	    for (i = 1; i <= n; i++) for (j = i + 1; j <= n; j++) \
	      if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t } \
	    return a[int((n + 1) / 2)]; \
	  } \
	  END { \
	    f = med("full"); s = med("scalar"); \
	    printf "batched (full) median: %.0f instr/s\nscalar median:         %.0f instr/s\nratio: %.2fx\n", f, s, f / s; \
	    if (f < s) { print "FAIL: batched sweep is slower than the scalar path"; exit 1 } \
	  }' bench_batch.tmp || { rm -f bench_batch.tmp; exit 1; }
	rm -f bench_batch.tmp

# Throughput regression guard against the recorded baseline: five fresh
# SimulatorThroughput samples compared median-to-median against the
# samples recorded in BENCH_throughput.json. Fresh samples more than 15%
# below the fresh run's median are shared-host load artifacts (the
# recorded sample_rule) and are discarded before the comparison; the
# guard fails when the surviving median is more than $(GUARD_TOL)% below
# the recorded median. CI runs this job advisory (continue-on-error):
# shared runners drift more than the tolerance without any code change,
# so a red guard is a prompt to re-measure, not an automatic veto.
bench-guard:
	$(GO) test -pgo=$(PGO) -run '^$$' -bench=SimulatorThroughput -count=5 . > bench_guard.tmp || { cat bench_guard.tmp; rm -f bench_guard.tmp; exit 1; }
	cat bench_guard.tmp
	awk -v tol=$(GUARD_TOL) ' \
	  function med(a, n,   t, i, j) { \
	    for (i = 1; i <= n; i++) for (j = i + 1; j <= n; j++) \
	      if (a[j] < a[i]) { t = a[i]; a[i] = a[j]; a[j] = t } \
	    return a[int((n + 1) / 2)]; \
	  } \
	  FNR == NR { if (/instr\/s/) fresh[++nf] = $$(NF-1) + 0; next } \
	  /^  "instr_per_s"/ { line = $$0; gsub(/[^0-9. ]/, " ", line); nb = split(line, base, " ") } \
	  END { \
	    if (nf == 0) { print "bench-guard: no fresh samples parsed"; exit 1 } \
	    if (nb == 0) { print "bench-guard: no baseline samples in BENCH_throughput.json"; exit 1 } \
	    fm = med(fresh, nf); \
	    k = 0; for (i = 1; i <= nf; i++) if (fresh[i] >= 0.85 * fm) keep[++k] = fresh[i]; \
	    fm = med(keep, k); \
	    for (i = 1; i <= nb; i++) bb[i] = base[i] + 0; \
	    bm = med(bb, nb); \
	    printf "fresh median:    %.0f instr/s (%d/%d samples kept)\n", fm, k, nf; \
	    printf "recorded median: %.0f instr/s (BENCH_throughput.json)\n", bm; \
	    printf "ratio: %.3fx (tolerance: -%d%%)\n", fm / bm, tol; \
	    if (fm < (1 - tol / 100) * bm) { \
	      print "FAIL: fresh median regressed past the tolerance"; exit 1 \
	    } \
	    print "OK"; \
	  }' bench_guard.tmp BENCH_throughput.json || { rm -f bench_guard.tmp; exit 1; }
	rm -f bench_guard.tmp

# CPU and heap profiles of the tracked throughput benchmark, written under
# results/profiles/ for pprof analysis (recipe in EXPERIMENTS.md,
# "Profiling the backend"). results/profiles/default.pgo is the checked-in
# profile-guided-optimization input the bench targets build with; copy a
# fresh cpu.pprof over it when the hot paths move.
profile:
	mkdir -p results/profiles
	$(GO) test -run '^$$' -bench=SimulatorThroughput -count=5 \
	  -o results/profiles/bench.test \
	  -cpuprofile=results/profiles/cpu.pprof -memprofile=results/profiles/mem.pprof .
	$(GO) tool pprof -top -nodecount=15 results/profiles/cpu.pprof

# Every benchmark (figures, tables, ablations) at minimal iteration count.
bench-all:
	$(GO) test -bench=. -benchtime=1x -v .

clean:
	$(GO) clean ./...
	rm -f results/*.json
