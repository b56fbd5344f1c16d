package gateway

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
)

// TestGatewayLivenessGhostIDs: the silence tracker covers device IDs the
// registry never issued — both registry edges and a far-out int, as a
// spoofed report off the wire can carry — exactly like registered ones.
// Liveness lists them in ID order, a checkpoint round trip keeps their
// stamps and dark marks, the post-restore rebase shifts them, and a ghost
// that goes silent raises one liveness alert, not one per sweep.
func TestGatewayLivenessGhostIDs(t *testing.T) {
	h, ctx := trainedHome(t)
	const threshold = 30 * time.Minute
	opts := []Option{WithConfig(core.Config{}), WithLiveness(threshold), WithAlertBuffer(4096)}
	gw, err := New(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	n := h.Registry().Len()
	steady, silent := h.Layout().BinaryID(0), h.Layout().BinaryID(1)
	lowGhost, edgeGhost, silentGhost := device.ID(-1), device.ID(n), device.ID(1<<40)

	// Minute 0: every device reports, in no particular ID order. From then
	// on only steady and the two talking ghosts keep reporting.
	first := []device.ID{silentGhost, edgeGhost, silent, lowGhost, steady}
	var batch []event.Event
	for _, id := range first {
		batch = append(batch, event.Event{At: 10 * time.Second, Device: id, Value: 1})
	}
	if err := gw.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	for m := 1; m <= 50; m++ {
		at := time.Duration(m)*time.Minute + 10*time.Second
		batch = batch[:0]
		for _, id := range []device.ID{edgeGhost, steady, lowGhost} {
			batch = append(batch, event.Event{At: at, Device: id, Value: 1})
		}
		if err := gw.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	want := slices.Clone(first)
	slices.Sort(want)
	var got []device.ID
	for _, dl := range gw.Liveness() {
		got = append(got, dl.Device)
		if dark := dl.Device == silent || dl.Device == silentGhost; dl.Dark != dark {
			t.Errorf("device %d dark = %v, want %v", dl.Device, dl.Dark, dark)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Liveness() devices = %v, want %v (ascending, ghosts included)", got, want)
	}

	// Exactly one liveness alert each for the silent registered device and
	// the silent ghost, however many sweeps ran past the threshold.
	perDevice := map[device.ID]int{}
	for _, a := range drainAlerts(gw) {
		if a.Cause != core.CheckLiveness {
			continue
		}
		if a.Explain == nil || len(a.Explain.Steps) != 1 || len(a.Explain.Steps[0].Suspects) != 1 {
			t.Fatalf("liveness alert lacks a silence trace: %+v", a.Explain)
		}
		perDevice[a.Explain.Steps[0].Suspects[0]]++
	}
	if !reflect.DeepEqual(perDevice, map[device.ID]int{silent: 1, silentGhost: 1}) {
		t.Fatalf("liveness alerts per device = %v, want one each for %d and %d", perDevice, silent, silentGhost)
	}
	if st := gw.Stats(); st.LivenessAlerts != 2 || st.DarkDevices != 2 {
		t.Fatalf("stats = %+v, want 2 liveness alerts and 2 dark devices", st)
	}

	// Export → restore → export keeps every stamp and dark mark.
	data, err := EncodeCheckpoint(gw.ExportCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(ctx, append(opts, WithCheckpoint(cp))...)
	if err != nil {
		t.Fatal(err)
	}
	again := restored.ExportCheckpoint()
	if !reflect.DeepEqual(again.LastSeenMS, cp.LastSeenMS) || !reflect.DeepEqual(again.Dark, cp.Dark) {
		t.Fatalf("checkpoint round trip changed liveness:\n before %v dark %v\n after  %v dark %v",
			cp.LastSeenMS, cp.Dark, again.LastSeenMS, again.Dark)
	}
	if !reflect.DeepEqual(cp.Dark, []device.ID{silent, silentGhost}) {
		t.Fatalf("checkpoint dark = %v, want [%d %d]", cp.Dark, silent, silentGhost)
	}
	if len(cp.LastSeenMS) != len(want) {
		t.Fatalf("checkpoint carries %d stamps, want %d", len(cp.LastSeenMS), len(want))
	}

	// The first live clock movement after a gap longer than the threshold
	// is downtime, not silence: every stamp, ghosts included, shifts by the
	// gap.
	before := restored.Liveness()
	gap := 2 * time.Hour
	if err := restored.AdvanceTo(time.Duration(cp.StreamNowMS)*time.Millisecond + gap); err != nil {
		t.Fatal(err)
	}
	after := restored.Liveness()
	if len(after) != len(before) {
		t.Fatalf("rebase changed the tracked set: %d → %d devices", len(before), len(after))
	}
	for i, dl := range after {
		wantAt := before[i].LastSeen + gap
		if dl.Device != before[i].Device || dl.LastSeen != wantAt || dl.Dark != before[i].Dark {
			t.Errorf("after rebase %+v, want device %d last seen %s dark %v", dl, before[i].Device, wantAt, before[i].Dark)
		}
	}
	for _, a := range drainAlerts(restored) {
		if a.Cause == core.CheckLiveness {
			t.Errorf("rebase raised a liveness alert: %+v", a.Explain)
		}
	}
}
