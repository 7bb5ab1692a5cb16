package main

import (
	"strings"
	"testing"
)

const promText = `# TYPE sim_instructions_total counter
sim_instructions_total 61601713
# TYPE server_queue_depth gauge
server_queue_depth 0
`

func TestParseProm(t *testing.T) {
	s, err := parseProm(strings.NewReader(promText))
	if err != nil {
		t.Fatal(err)
	}
	if s["sim_instructions_total"] != 61601713 || len(s) != 2 {
		t.Fatalf("parsed %v", s)
	}
	if _, err := parseProm(strings.NewReader("x{a=\"b\"} 1\n")); err == nil {
		t.Error("labelled sample accepted")
	}
	if _, err := parseProm(strings.NewReader("x one\n")); err == nil {
		t.Error("non-numeric sample accepted")
	}
}

func TestPromDeltaFailsOnMissingFamily(t *testing.T) {
	before := promSample{"a_total": 1}
	after := promSample{"a_total": 5, "leakctl_dl1_l2_ns_total": 9}
	d, err := promDelta(before, after, []string{"a_total", "leakctl_dl1_l2_ns_total"}, true)
	if err != nil || d["a_total"] != 4 || d["leakctl_dl1_l2_ns_total"] != 9 {
		t.Fatalf("delta %v, %v", d, err)
	}
	if _, err := promDelta(before, after, []string{"renamed_total"}, true); err == nil {
		t.Error("a missing family did not fail")
	}
	if _, err := promDelta(before, promSample{"a_total": 5}, []string{"leakctl_dl1_l2_ns_total"}, true); err == nil {
		t.Error("a simulating daemon without its lazy family did not fail")
	}
	if _, err := promDelta(before, promSample{"a_total": 5}, []string{"leakctl_dl1_l2_ns_total"}, false); err != nil {
		t.Errorf("a coordinator without the lazy family failed: %v", err)
	}
	if _, err := promDelta(promSample{}, after, []string{"a_total"}, true); err == nil {
		t.Error("a non-lazy family missing before did not fail")
	}
}

func TestCheckMetricsAgainstSpec(t *testing.T) {
	spec := benchSpec{
		EndToEnd: []specMetric{{Name: "wall_s", Unit: "s"}},
		PerLayer: []specMetric{{Name: "store.get_us", Unit: "us"}},
	}
	if err := checkMetrics(spec, false, map[string]metric{"wall_s": {1, "s"}}); err != nil {
		t.Error(err)
	}
	if err := checkMetrics(spec, true, map[string]metric{"store.get_us": {1, "us"}}); err != nil {
		t.Error(err)
	}
	for _, ms := range []map[string]metric{
		{},
		{"wall_s": {1, "ms"}},
		{"wall_s": {1, "s"}, "extra": {1, "s"}},
	} {
		if err := checkMetrics(spec, false, ms); err == nil {
			t.Errorf("checkMetrics accepted %v", ms)
		}
	}
}

// The benchmark's own metric lists must parse and every end-to-end
// metric carry a bound within the allowed range.
func TestRepositorySpec(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatal("empty metric lists")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
