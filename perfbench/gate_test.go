package main

import (
	"strings"
	"testing"
)

func sampleValues() map[string][]byte {
	return map[string][]byte{
		"bb": []byte(`{"Bench":"gcc","TurnoffRat":0.25}`),
		"aa": []byte(`{"Bench":"mcf","TurnoffRat":0.5}`),
		"cc": []byte(`{"Scenario":"smoke","Probes":96}`),
	}
}

func perturbed(v map[string][]byte, hash string) map[string][]byte {
	out := make(map[string][]byte, len(v))
	for h, b := range v {
		out[h] = append([]byte(nil), b...)
	}
	b := out[hash]
	b[len(b)-2]++ // one digit of one value
	return out
}

func TestDigestIsOrderFreeAndPinned(t *testing.T) {
	v := sampleValues()
	d := digest(v)
	if d != digest(sampleValues()) {
		t.Fatal("digest is not deterministic")
	}
	p := pins{"cold-sweep": {"3": d}}
	if pinned, err := p.check("cold-sweep", 3, d); !pinned || err != nil {
		t.Fatalf("pinned digest: pinned=%v err=%v", pinned, err)
	}
	if pinned, err := p.check("cold-sweep", 4, "anything"); pinned || err != nil {
		t.Fatalf("unpinned seed: pinned=%v err=%v", pinned, err)
	}
}

// A perturbed cell value must trip every gate it passes through.
func TestPerturbedValueTripsGate(t *testing.T) {
	v := sampleValues()
	bad := perturbed(v, "bb")
	p := pins{"service-mixed": {"1": digest(v)}}
	if _, err := p.check("service-mixed", 1, digest(bad)); err == nil || !strings.Contains(err.Error(), "digest gate") {
		t.Errorf("digest gate passed a perturbed value: %v", err)
	}
	if err := samePass(v, bad); err == nil {
		t.Error("samePass accepted a perturbed value")
	}
	keys := map[string]string{"k-bb": "bb", "k-cc": "cc"}
	if err := compareServed(v, keys, keys, v); err != nil {
		t.Errorf("identical values failed the gate: %v", err)
	}
	if err := compareServed(v, keys, keys, bad); err == nil {
		t.Error("compareServed accepted a perturbed served value")
	}
	moved := map[string]string{"k-bb": "aa", "k-cc": "cc"}
	if err := compareServed(v, keys, moved, v); err == nil {
		t.Error("compareServed accepted a cell served under another address")
	}
}

func TestEmbeddedPinsParse(t *testing.T) {
	if _, err := loadPins(); err != nil {
		t.Fatal(err)
	}
}
