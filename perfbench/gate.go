package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
)

// The correctness gate checks the model for bit-identity, not accuracy:
// the repository has no machine-readable reference results, so no error
// figure is computed.

// digest hashes every served cell value, sorted by content address.
func digest(values map[string][]byte) string {
	hashes := make([]string, 0, len(values))
	for h := range values {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	d := sha256.New()
	for _, h := range hashes {
		d.Write([]byte(h))
		d.Write([]byte{'\t'})
		d.Write(values[h])
		d.Write([]byte{'\n'})
	}
	return hex.EncodeToString(d.Sum(nil))
}

// pinnedJSON holds the digest each workload must produce at the recorded
// seeds: workload name -> seed -> digest.
//
//go:embed digests.json
var pinnedJSON []byte

type pins map[string]map[string]string

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return p, nil
}

// check fails when seed has a pinned digest for workload and got differs
// from it. It reports whether a pin applied.
func (p pins) check(workload string, seed int64, got string) (bool, error) {
	want, ok := p[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return false, nil
	}
	if got != want {
		return true, fmt.Errorf("digest gate: %s seed %d served digest %s, pinned %s", workload, seed, got, want)
	}
	return true, nil
}

// samePass fails unless two passes served exactly the same cells with
// exactly the same bytes.
func samePass(first, other map[string][]byte) error {
	if len(first) != len(other) {
		return fmt.Errorf("passes served %d and %d distinct cells", len(first), len(other))
	}
	for h, v := range first {
		if w, ok := other[h]; !ok || !bytes.Equal(v, w) {
			return fmt.Errorf("cell %s differs between passes", h)
		}
	}
	return nil
}

// gateSample draws the cells recomputed in process: up to nEnergy energy
// and nAttack attack cells out of cells, reproducibly from seed.
func gateSample(seed int64, cells []api.Cell, nEnergy, nAttack int) []api.Cell {
	r := rngFor(seed, "gate")
	var energy, attacks []api.Cell
	for _, i := range r.Perm(len(cells)) {
		c := cells[i]
		if c.Kind == api.KindAttack {
			if len(attacks) < nAttack {
				attacks = append(attacks, c)
			}
		} else if len(energy) < nEnergy {
			energy = append(energy, c)
		}
	}
	return append(energy, attacks...)
}

// recompute runs sample in process through sim.Experiments with no store
// and returns each cell's content address and value bytes, encoded as
// the store encodes them.
func recompute(sample []api.Cell) (map[string][]byte, map[string]string, error) {
	specs, attacks, wire, err := api.ExpandCells(api.SweepRequest{Cells: sample})
	if err != nil {
		return nil, nil, err
	}
	e := sim.NewExperiments()
	e.Instructions, e.Warmup = cellInstructions, cellWarmup
	e.Workers = simThreads
	defer e.Close()
	values := make(map[string][]byte)
	hashes := make(map[string]string) // wire-cell key -> hash
	outs, err := e.RunCells(specs)
	if err != nil {
		return nil, nil, fmt.Errorf("recompute: %w", err)
	}
	for i, o := range outs {
		if o.Err != nil {
			return nil, nil, fmt.Errorf("recompute %s: %v", o.Key, o.Err)
		}
		b, err := json.Marshal(o.Result)
		if err != nil {
			return nil, nil, err
		}
		values[o.Hash] = b
		hashes[cellKey(wire[i])] = o.Hash
	}
	aouts, err := e.RunAttackCells(attacks)
	if err != nil {
		return nil, nil, fmt.Errorf("recompute: %w", err)
	}
	for i, o := range aouts {
		if o.Err != nil {
			return nil, nil, fmt.Errorf("recompute %s: %v", o.Key, o.Err)
		}
		b, err := json.Marshal(o.Result)
		if err != nil {
			return nil, nil, err
		}
		values[o.Hash] = b
		hashes[cellKey(wire[len(specs)+i])] = o.Hash
	}
	return values, hashes, nil
}

// compareServed fails unless every recomputed cell was served under the
// same content address with byte-equal value.
func compareServed(recomputed map[string][]byte, recHashes, servedHashes map[string]string, served map[string][]byte) error {
	keys := make([]string, 0, len(recHashes))
	for k := range recHashes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := recHashes[k]
		if sh, ok := servedHashes[k]; !ok {
			return fmt.Errorf("gate: cell %s was never served", k)
		} else if sh != h {
			return fmt.Errorf("gate: cell %s served as %s, recomputed as %s", k, sh, h)
		}
		if !bytes.Equal(served[h], recomputed[h]) {
			return fmt.Errorf("gate: cell %s (%s): served value differs from in-process recompute", k, h)
		}
	}
	return nil
}
