package main

import (
	"fmt"
	"math/rand"
	"sort"

	"hotleakage/internal/attack"
	"hotleakage/internal/server/api"
	"hotleakage/internal/workload"
)

// Per-cell budget of every energy cell the benchmark submits: 300k
// measured instructions after a 100k warmup, the smallest budget the
// simulator runs without its cold-start warning.
const (
	cellInstructions uint64 = 300_000
	cellWarmup       uint64 = 100_000
)

// l2Choices are the L2 hit latencies a workload draws from.
var l2Choices = []int{5, 8, 11, 17}

// intervalGrid is the log grid of decay intervals, 512 to 131072 cycles.
func intervalGrid() []uint64 {
	var g []uint64
	for iv := uint64(512); iv <= 131072; iv *= 2 {
		g = append(g, iv)
	}
	return g
}

// Names of the workloads. BENCHMARK.json lists cold-sweep and
// cluster-sweep; service-mixed runs on request (see METRICS.md).
const (
	wlCold    = "cold-sweep"
	wlService = "service-mixed"
	wlCluster = "cluster-sweep"
)

var workloadNames = []string{wlCold, wlService, wlCluster}

// rngFor derives an independent, reproducible stream per (seed, purpose),
// so adding a draw to one stream never shifts another.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range purpose {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*0x9E3779B9 ^ h))
}

// pick draws k distinct elements of xs, returned in ascending order.
func pick[T int | uint64](r *rand.Rand, xs []T, k int) []T {
	idx := r.Perm(len(xs))[:k]
	out := make([]T, k)
	for i, j := range idx {
		out[i] = xs[j]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// bulkSweep is the cold-sweep shape: every benchmark x {baseline, drowsy,
// gated-vss} x 3 decay intervals x 2 L2 latencies, 154 cells. purpose
// separates the cold-sweep draw from the cluster-sweep one.
func bulkSweep(seed int64, purpose string) api.SweepRequest {
	r := rngFor(seed, purpose)
	return api.SweepRequest{
		Instructions:     cellInstructions,
		Warmup:           cellWarmup,
		Benchmarks:       workload.Names(),
		Techniques:       []string{"drowsy", "gated-vss"},
		Intervals:        pick(r, intervalGrid(), 3),
		L2Latencies:      pick(r, l2Choices, 2),
		IncludeBaselines: true,
		Priority:         "bulk",
	}
}

// Service-mixed shape. Counts are exact, not drawn, so every seed asks
// for the same amount of work: per pass, servicePerSize sweeps of each
// size 1..4 (750 cells), of which 2% are fresh energy cells, 10% fresh
// attack cells and the rest energy cells already in the store. Passes
// are kept short so a run has many of them and their median rides out
// bursts of host contention.
const (
	serviceL2          = 11
	servicePerSize     = 75
	serviceFreshEnergy = 15
	serviceFreshAttack = 75
)

// servicePlan is everything service-mixed needs for one seed: the store
// population built during set-up and the sweeps of one pass.
type servicePlan struct {
	Population api.SweepRequest
	Sweeps     []api.SweepRequest
}

// serviceMixed builds the plan for seed. The population is every
// benchmark at L2 latency serviceL2 x {baseline, drowsy, gated-vss} x 2
// grid intervals (55 cells). Fresh energy cells take intervals off the grid,
// so they can never be population cells; fresh attack cells are distinct
// (scenario, technique, interval, L2) tuples.
func serviceMixed(seed int64) servicePlan {
	r := rngFor(seed, "service-population")
	// The L2 latency is fixed rather than drawn: it sets the cost of every
	// fresh energy cell, and those cells hold the single sweep executor,
	// so a drawn latency would move the service figures with the seed.
	const l2 = serviceL2
	popReq := api.SweepRequest{
		Instructions:     cellInstructions,
		Warmup:           cellWarmup,
		Benchmarks:       workload.Names(),
		Techniques:       []string{"drowsy", "gated-vss"},
		Intervals:        pick(r, intervalGrid(), 2),
		L2Latencies:      []int{l2},
		IncludeBaselines: true,
		Priority:         "bulk",
	}
	_, _, population, err := api.ExpandCells(popReq)
	if err != nil {
		panic(fmt.Sprintf("population request does not expand: %v", err))
	}

	techs := []string{"drowsy", "gated-vss"}
	benches := workload.Names()
	onGrid := make(map[uint64]bool)
	for _, iv := range intervalGrid() {
		onGrid[iv] = true
	}
	seen := make(map[api.Cell]bool)
	for _, c := range population {
		seen[c] = true
	}
	fresh := func(c api.Cell) bool {
		if seen[c] {
			return false
		}
		seen[c] = true
		return true
	}

	f := rngFor(seed, "service-fresh")
	var freshEnergy []api.Cell
	for i := 0; len(freshEnergy) < serviceFreshEnergy; i++ {
		// Benchmarks and techniques rotate so every seed spreads its fresh
		// cells evenly over the suite; the interval is drawn.
		iv := uint64(512 + f.Intn(131072-512))
		if onGrid[iv] {
			continue
		}
		c := api.Cell{Bench: benches[i%len(benches)], L2: l2, Technique: techs[i%2], Interval: iv}
		if fresh(c) {
			freshEnergy = append(freshEnergy, c)
		}
	}
	scenarios := attack.Names()
	var freshAttack []api.Cell
	for i := 0; len(freshAttack) < serviceFreshAttack; i++ {
		c := api.Cell{
			Kind:      api.KindAttack,
			Scenario:  scenarios[i%len(scenarios)],
			L2:        l2Choices[f.Intn(len(l2Choices))],
			Technique: techs[(i/len(scenarios))%2],
			Interval:  uint64(256 + f.Intn(65536-256)),
		}
		if fresh(c) {
			freshAttack = append(freshAttack, c)
		}
	}

	// Sweep sizes: an exact multiset, shuffled.
	var sizes []int
	for k := 1; k <= 4; k++ {
		for i := 0; i < servicePerSize; i++ {
			sizes = append(sizes, k)
		}
	}
	s := rngFor(seed, "service-sweeps")
	s.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	total := 0
	for _, k := range sizes {
		total += k
	}
	// Cell slots: exact class counts, shuffled; 'h' is a store hit.
	slots := make([]byte, total)
	for i := range slots {
		switch {
		case i < serviceFreshEnergy:
			slots[i] = 'e'
		case i < serviceFreshEnergy+serviceFreshAttack:
			slots[i] = 'a'
		default:
			slots[i] = 'h'
		}
	}
	s.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	plan := servicePlan{Population: popReq}
	next := 0
	for _, k := range sizes {
		req := api.SweepRequest{Instructions: cellInstructions, Warmup: cellWarmup, Priority: "interactive"}
		inSweep := make(map[api.Cell]bool)
		for j := 0; j < k; j++ {
			var c api.Cell
			switch slots[next] {
			case 'e':
				c, freshEnergy = freshEnergy[0], freshEnergy[1:]
			case 'a':
				c, freshAttack = freshAttack[0], freshAttack[1:]
			default:
				// A sweep never names the same stored cell twice.
				for c = population[s.Intn(len(population))]; inSweep[c]; {
					c = population[s.Intn(len(population))]
				}
			}
			next++
			inSweep[c] = true
			req.Cells = append(req.Cells, c)
		}
		plan.Sweeps = append(plan.Sweeps, req)
	}
	return plan
}
