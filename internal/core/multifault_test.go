package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/window"
)

// TestMultiFaultConcurrentEpisodes drives two disjoint faults with
// interleaved evidence — motion-a dark on even windows, the temp sensor
// stuck high on odd windows — through a MaxFaults=2 detector. The
// disjoint odd-window evidence must split a second episode while the
// first is still open, and each episode must conclude with an alert
// naming exactly its own device.
func TestMultiFaultConcurrentEpisodes(t *testing.T) {
	l, ctx := trainAlternating(t)
	d := newTestDetector(t, ctx, Config{MaxFaults: 2})
	next := feedNormal(t, d, l, 0, 10)

	maxOpen := 0
	var alerts []*Alert
	for i := 0; i < 30 && len(alerts) < 2; i++ {
		idx := next + i
		var o *window.Observation
		if idx%2 == 0 {
			o = evenObs(l, idx)
			o.Binary[0] = false // fault A: motion-a dark
		} else {
			// fault B: temp stuck at its even-window high on odd windows.
			o = makeObs(l, idx, []bool{false, true},
				[][]float64{{30, 30, 30}, {50, 50, 50}}, device.ID(4))
		}
		res, err := d.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if n := d.OpenEpisodes(); n > maxOpen {
			maxOpen = n
		}
		if len(res.Alerts) > 0 && res.Alert != res.Alerts[0] {
			t.Error("res.Alert is not the first of res.Alerts")
		}
		alerts = append(alerts, res.Alerts...)
	}

	if maxOpen < 2 {
		t.Fatalf("max concurrent episodes = %d, want 2 (no split happened)", maxOpen)
	}
	if len(alerts) < 2 {
		t.Fatalf("storm concluded %d alerts, want 2", len(alerts))
	}
	named := map[device.ID]bool{}
	for _, a := range alerts {
		if len(a.Devices) != 1 {
			t.Errorf("alert names %v, want exactly one device", a.Devices)
			continue
		}
		named[a.Devices[0]] = true
	}
	if !named[0] || !named[2] {
		t.Errorf("alerts named %v, want both device 0 and device 2", named)
	}
	if d.Identifying() {
		t.Error("episodes still open after both faults concluded")
	}
}

// TestMultiFaultSingleModeUnchanged: with MaxFaults=1 (the default), the
// episode engine runs with a cap of one — the same interleaved storm never
// holds more than one episode open.
func TestMultiFaultSingleModeUnchanged(t *testing.T) {
	l, ctx := trainAlternating(t)
	d := newTestDetector(t, ctx, Config{})
	next := feedNormal(t, d, l, 0, 10)

	for i := 0; i < 30; i++ {
		idx := next + i
		var o *window.Observation
		if idx%2 == 0 {
			o = evenObs(l, idx)
			o.Binary[0] = false
		} else {
			o = makeObs(l, idx, []bool{false, true},
				[][]float64{{30, 30, 30}, {50, 50, 50}}, device.ID(4))
		}
		if _, err := d.Process(o); err != nil {
			t.Fatal(err)
		}
		if n := d.OpenEpisodes(); n > 1 {
			t.Fatalf("single-fault mode holds %d episodes open", n)
		}
	}
}
