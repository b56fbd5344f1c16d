package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestStageTimingSampled: with WithStageTimingPeriod(n) the detector fills
// Result.Timing on exactly the n-th, 2n-th, ... window and leaves it zero
// on every other, and dice_scan_seconds_count is windows / n. Everything
// else — every Result field, every alert with its Explain JSON and every
// other metric — equals the default detector's over a faulty stretch.
func TestStageTimingSampled(t *testing.T) {
	const period = 7
	h, ctx := goldenHome(t)
	run := identifyRuns(h)[0]
	for _, r := range identifyRuns(h) {
		if r.name == "numThre=2/two-faults" {
			run = r
		}
	}
	plan, err := run.plan(h.Layout())
	if err != nil {
		t.Fatal(err)
	}
	sc := faults.Scenario{Name: run.name, Seed: 21, Faults: plan}
	obs, err := sc.Apply(h.Layout(), h.WindowRange(identifyFrom, identifyFrom+identifyStretch))
	if err != nil {
		t.Fatal(err)
	}
	refReg, sampledReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	ref, err := New(ctx, WithConfig(run.cfg), WithTelemetry(refReg))
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := New(ctx, WithConfig(run.cfg), WithTelemetry(sampledReg), WithStageTimingPeriod(period))
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	for i, o := range obs {
		want, err := ref.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sampled.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if want.Timing == (Timing{}) {
			t.Fatalf("window %d: default detector left Timing zero", o.Index)
		}
		if timed := got.Timing != (Timing{}); timed != ((i+1)%period == 0) {
			t.Fatalf("window %d (#%d): Timing %+v, want it filled only on every %d-th window", o.Index, i+1, got.Timing, period)
		}
		want.Timing, got.Timing = Timing{}, Timing{}
		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gj) != string(wj) {
			t.Fatalf("window %d: sampled result differs\n got  %s\n want %s", o.Index, gj, wj)
		}
		alerts += len(got.Alerts)
	}
	if alerts == 0 {
		t.Fatal("the faulty stretch raised no alert to compare")
	}
	refSnap, snap := refReg.SnapshotMap(), sampledReg.SnapshotMap()
	if got, want := snap[metricScanSeconds+"_count"], float64(len(obs)/period); got != want {
		t.Errorf("%s_count = %g over %d windows, want %g", metricScanSeconds, got, len(obs), want)
	}
	if got := refSnap[metricScanSeconds+"_count"]; got != float64(len(obs)) {
		t.Errorf("default %s_count = %g, want every one of %d windows", metricScanSeconds, got, len(obs))
	}
	for name, want := range refSnap {
		if strings.HasPrefix(name, metricScanSeconds) {
			continue
		}
		if got := snap[name]; got != want {
			t.Errorf("%s = %g, default detector %g", name, got, want)
		}
	}
}
