package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"hotleakage/internal/server/api"
)

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The same seed must give a byte-identical request list; another seed a
// different one.
func TestSameSeedSameRequests(t *testing.T) {
	for _, purpose := range []string{"cold-sweep", "cluster-sweep"} {
		a, b := marshal(t, bulkSweep(7, purpose)), marshal(t, bulkSweep(7, purpose))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two request lists", purpose)
		}
		if bytes.Equal(a, marshal(t, bulkSweep(8, purpose))) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", purpose)
		}
	}
	if bytes.Equal(marshal(t, bulkSweep(7, "cold-sweep")), marshal(t, bulkSweep(7, "cluster-sweep"))) {
		t.Error("cold-sweep and cluster-sweep share their draw")
	}
	a, b := marshal(t, serviceMixed(7)), marshal(t, serviceMixed(7))
	if !bytes.Equal(a, b) {
		t.Error("service-mixed: seed 7 gave two plans")
	}
	if bytes.Equal(a, marshal(t, serviceMixed(8))) {
		t.Error("service-mixed: seeds 7 and 8 gave the same plan")
	}
}

func TestBulkSweepShape(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		req := bulkSweep(seed, "cold-sweep")
		_, _, wire, err := api.ExpandCells(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) != 154 {
			t.Fatalf("seed %d: %d cells, want 154", seed, len(wire))
		}
		if len(req.Intervals) != 3 || len(req.L2Latencies) != 2 {
			t.Fatalf("seed %d: %d intervals, %d L2 latencies", seed, len(req.Intervals), len(req.L2Latencies))
		}
		for _, iv := range req.Intervals {
			if iv < 512 || iv > 131072 || iv&(iv-1) != 0 {
				t.Errorf("seed %d: interval %d off the log grid", seed, iv)
			}
		}
	}
}

// Service-mixed asks every seed for the same amount of work: exact sweep
// sizes and cell classes, fresh cells fresh exactly once.
func TestServiceMixedCounts(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		plan := serviceMixed(seed)
		_, _, pop, err := api.ExpandCells(plan.Population)
		if err != nil {
			t.Fatal(err)
		}
		inPop := make(map[string]bool)
		for _, c := range pop {
			inPop[cellKey(c)] = true
		}
		sizes := make(map[int]int)
		fresh := make(map[string]int)
		var energy, attacks, hits int
		for _, req := range plan.Sweeps {
			sizes[len(req.Cells)]++
			if _, _, wire, err := api.ExpandCells(req); err != nil || len(wire) != len(req.Cells) {
				t.Fatalf("seed %d: sweep %v does not expand to its %d cells (%v)", seed, req.Cells, len(req.Cells), err)
			}
			for _, c := range req.Cells {
				switch k := cellKey(c); {
				case inPop[k]:
					hits++
				case c.Kind == api.KindAttack:
					attacks++
					fresh[k]++
				default:
					energy++
					fresh[k]++
				}
			}
		}
		for k := 1; k <= 4; k++ {
			if sizes[k] != servicePerSize {
				t.Errorf("seed %d: %d sweeps of %d cells, want %d", seed, sizes[k], k, servicePerSize)
			}
		}
		if total := 10 * servicePerSize; energy != serviceFreshEnergy || attacks != serviceFreshAttack || hits != total-energy-attacks {
			t.Errorf("seed %d: %d fresh energy, %d fresh attack, %d hits", seed, energy, attacks, hits)
		}
		for k, n := range fresh {
			if n != 1 {
				t.Errorf("seed %d: fresh cell %s requested %d times", seed, k, n)
			}
		}
	}
}
