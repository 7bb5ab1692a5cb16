package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// printSpread reads the final JSON line of each result file and prints,
// per metric, the median, the quartiles and their distance as a share of
// the median, beside the metric's bound from BENCHMARK.json when the
// file is in the working directory. Runs of one workload with different
// seeds go in one call.
func printSpread(files []string) error {
	if len(files) < 2 {
		return fmt.Errorf("-spread needs at least two result files")
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for _, f := range files {
		res, err := lastResult(f)
		if err != nil {
			return err
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	bounds := map[string]float64{}
	if spec, err := loadSpec("BENCHMARK.json"); err == nil {
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %4s %14s %14s %14s %8s %7s\n", "metric", "n", "median", "q1", "q3", "iqr/med", "bound")
	for _, n := range names {
		xs := values[n]
		q1, q3, err := quartiles(xs)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		rel, _ := relIQR(xs)
		bound := "-"
		if b, ok := bounds[n]; ok {
			bound = fmt.Sprint(b)
		}
		fmt.Printf("%-28s %4d %14.6g %14.6g %14.6g %8.4f %7s %s\n", n, len(xs), median(xs), q1, q3, rel, bound, units[n])
	}
	return nil
}

func lastResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return res, nil
}

// benchSpec is the part of BENCHMARK.json the benchmark checks itself
// against.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// loadSpec reads a BENCHMARK.json.
func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// checkMetrics fails unless ms holds exactly the metrics the spec lists
// for this kind of run, each in its declared unit, so a renamed or
// dropped metric cannot go unnoticed.
func checkMetrics(spec benchSpec, traced bool, ms map[string]metric) error {
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	seen := make(map[string]bool, len(want))
	for _, m := range want {
		got, ok := ms[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json lists %s, which the run did not report", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("%s: reported in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
		seen[m.Name] = true
	}
	for name := range ms {
		if !seen[name] {
			return fmt.Errorf("the run reported %s, which BENCHMARK.json does not list", name)
		}
	}
	return nil
}
