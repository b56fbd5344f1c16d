package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/gateway"
)

// alertKey is the part of an alert the oracle compares: the devices, the
// cause, and the windows it was detected and reported in.
type alertKey struct {
	Devices  string
	Cause    core.CheckKind
	Detected time.Duration
	Reported time.Duration
}

// alertRec is one received alert: its comparable key and the device IDs
// it names.
type alertRec struct {
	key alertKey
	ids []device.ID
}

func recOf(a gateway.Alert) alertRec {
	ids := make([]device.ID, len(a.Devices))
	for i, d := range a.Devices {
		ids[i] = d.ID
	}
	return alertRec{
		key: alertKey{Devices: fmt.Sprint(ids), Cause: a.Cause, Detected: a.DetectedAt, Reported: a.ReportedAt},
		ids: ids,
	}
}

// homeOutput is what one home's run produced: its final counters and the
// ordered alerts it raised.
type homeOutput struct {
	Stats  gateway.Stats
	Alerts []alertRec
}

// reference replays every home serially through a solo gateway, batch by
// batch, and returns the outputs every workload must reproduce.
func reference(cctx *core.Context, in *inputs) ([]homeOutput, error) {
	out := make([]homeOutput, len(in.homes))
	for i := range in.homes {
		h := &in.homes[i]
		gw, err := gateway.New(cctx, gateway.WithConfig(core.Config{}), gateway.WithAlertBuffer(1<<16))
		if err != nil {
			return nil, err
		}
		for k := range h.batches {
			if err := gw.IngestBatch(h.batchEvents(k)); err != nil {
				return nil, err
			}
		}
		if err := gw.AdvanceTo(h.end); err != nil {
			return nil, err
		}
		out[i].Stats = gw.Stats()
		for len(gw.Alerts()) > 0 {
			out[i].Alerts = append(out[i].Alerts, recOf(<-gw.Alerts()))
		}
	}
	return out, nil
}

// compare checks a run's per-home outputs against the reference and
// describes the first mismatch.
func compare(got, want []homeOutput, in *inputs) error {
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d homes reported, want %d", len(got), len(want))
	}
	for i := range want {
		name := in.homes[i].name
		if got[i].Stats != want[i].Stats {
			return fmt.Errorf("oracle: %s stats %+v, want %+v", name, got[i].Stats, want[i].Stats)
		}
		if len(got[i].Alerts) != len(want[i].Alerts) {
			return fmt.Errorf("oracle: %s raised %d alerts, want %d", name, len(got[i].Alerts), len(want[i].Alerts))
		}
		for j := range want[i].Alerts {
			if got[i].Alerts[j].key != want[i].Alerts[j].key {
				return fmt.Errorf("oracle: %s alert %d is %+v, want %+v", name, j, got[i].Alerts[j].key, want[i].Alerts[j].key)
			}
		}
	}
	return nil
}

// score compares the devices named in alerts with the injected ground
// truth. Precision is the share of device mentions, over the alerts of
// homes that carry a fault, that name the injected device; recall is the
// share of injected faults named by at least one alert. A workload without
// faults scores 1 on both: it has nothing to miss or misname. Alerts in
// fault-free homes are false alarms, counted apart.
func score(out []homeOutput, in *inputs) (precision, recall float64, falseAlarms int) {
	var named, right, truth, found int
	for i := range in.homes {
		f := in.homes[i].fault
		if f == nil {
			falseAlarms += len(out[i].Alerts)
			continue
		}
		truth++
		hit := false
		for _, a := range out[i].Alerts {
			for _, id := range a.ids {
				named++
				if id == f.Device {
					right++
					hit = true
				}
			}
		}
		if hit {
			found++
		}
	}
	precision, recall = 1, 1
	if named > 0 {
		precision = float64(right) / float64(named)
	}
	if truth > 0 {
		recall = float64(found) / float64(truth)
	}
	return precision, recall, falseAlarms
}
