package core

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/simhome"
	"repro/internal/window"
)

// goldenContext was written by Context.Save at commit 415006c, the last
// one that still read two context schemas: goldenHome's context, trained
// on its first three days at one-minute windows.
const goldenContext = "testdata/houseA.ctx"

// goldenHome is the simulated D_houseA home (seed 21, five days) behind
// the golden context, with its context trained on the first three days.
func goldenHome(t *testing.T) (*simhome.Home, *Context) {
	t.Helper()
	spec := simhome.SpecDHouseA()
	spec.Name = "golden"
	spec.Hours = 5 * 24
	h, err := simhome.New(spec, 21)
	if err != nil {
		t.Fatal(err)
	}
	train := make([]*window.Observation, 3*24*60)
	for i := range train {
		train[i] = h.Window(i)
	}
	ctx, err := TrainWindows(h.Layout(), time.Minute, train)
	if err != nil {
		t.Fatal(err)
	}
	return h, ctx
}

// TestGoldenContext loads a trained context saved before the format was
// narrowed to one schema. This build must train the same bytes, load the
// file to the same fingerprint, re-save it byte for byte, and detect on
// it exactly as on its own freshly trained context.
func TestGoldenContext(t *testing.T) {
	h, fresh := goldenHome(t)
	data, err := os.ReadFile(goldenContext)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Error("this build trains different bytes than the golden context")
	}
	loaded, err := LoadContext(bytes.NewReader(data), h.Layout())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != fresh.Fingerprint() {
		t.Errorf("fingerprint %s, want %s", loaded.Fingerprint(), fresh.Fingerprint())
	}
	buf.Reset()
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Error("re-saved golden context differs from the file")
	}

	// Detect over the held-out afternoons with a spuriously firing bulb,
	// on the loaded and on the fresh context.
	bulb, ok := h.Registry().Lookup("bulb-kitchen")
	if !ok {
		t.Fatal("no kitchen bulb")
	}
	start := 3*24*60 + 12*60
	faulty := h.WithActuatorFaults(simhome.ActuatorFaults{
		Spurious:   map[device.ID]bool{bulb: true},
		Seed:       3,
		FromMinute: start,
	})
	detA, err := New(loaded, WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	detB, err := New(fresh, WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	for i := start; i < start+6*60; i++ {
		o := faulty.Window(i)
		ra, err := detA.Process(o.Clone())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := detB.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTiming(ra), stripTiming(rb)) {
			t.Fatalf("window %d diverged:\n loaded: %+v\n fresh:  %+v", i, ra, rb)
		}
		alerts += len(ra.Alerts)
	}
	if alerts == 0 {
		t.Error("no alerts on the faulty stream; the comparison is vacuous")
	}
}
