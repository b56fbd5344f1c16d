package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tinyScale shrinks every workload's inputs so that all four run, traced
// and untraced, in seconds.
const tinyScale = 0.2

func tiny(t *testing.T, name string, trace bool) config {
	return config{workload: name, seed: 3, seconds: 0.2, trace: trace, workdir: t.TempDir(), scale: tinyScale}
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

// TestEveryMetricPrinted runs every declared workload at a tiny size,
// untraced and traced, and checks that each prints exactly the declared
// metrics with their declared units and passes the output oracle.
func TestEveryMetricPrinted(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	if len(names) != len(workloads(1)) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(names), len(workloads(1)))
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			start := time.Now()
			res, err := run(tiny(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			t.Logf("%s trace=%v: %v", name, trace, time.Since(start))
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", name, trace, len(res.Metrics), len(want))
			}
			for metricName, unit := range want {
				got, ok := res.Metrics[metricName]
				if !ok {
					t.Errorf("%s trace=%v: %s not printed", name, trace, metricName)
					continue
				}
				if got.Unit != unit {
					t.Errorf("%s trace=%v: %s in %q, declared %q", name, trace, metricName, got.Unit, unit)
				}
			}
		}
	}
}

// TestCorruptReferenceFails alters one expected alert and checks that the
// oracle then refuses the run, so a broken comparison cannot pass
// silently.
func TestCorruptReferenceFails(t *testing.T) {
	cfg := tiny(t, "hub-faulty", false)
	altered := false
	cfg.mutateRef = func(ref []homeOutput) {
		for i := range ref {
			if len(ref[i].Alerts) > 0 {
				ref[i].Alerts[0].key.Reported += time.Minute
				altered = true
				return
			}
		}
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !altered {
		t.Fatal("the tiny hub-faulty reference raised no alert to alter")
	}
	if res.Correct {
		t.Fatal("a run checked against an altered reference passed the oracle")
	}
}
