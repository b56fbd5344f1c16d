package window

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/event"
)

// testDevices builds a registry with 2 binary, 2 numeric, 2 actuator devices
// in interleaved registration order to exercise the slot mapping.
func testDevices(t *testing.T) (*device.Registry, *Layout) {
	t.Helper()
	reg := device.NewRegistry()
	reg.MustAdd("m0", device.Binary, device.Motion, "a")       // ID 0, binary slot 0
	reg.MustAdd("t0", device.Numeric, device.Temperature, "a") // ID 1, numeric slot 0
	reg.MustAdd("b0", device.Actuator, device.SmartBulb, "a")  // ID 2, act slot 0
	reg.MustAdd("m1", device.Binary, device.Motion, "b")       // ID 3, binary slot 1
	reg.MustAdd("l0", device.Numeric, device.Light, "b")       // ID 4, numeric slot 1
	reg.MustAdd("b1", device.Actuator, device.SmartBlind, "b") // ID 5, act slot 1
	return reg, NewLayout(reg)
}

func TestLayoutSlots(t *testing.T) {
	_, l := testDevices(t)
	if l.NumBinary() != 2 || l.NumNumeric() != 2 || l.NumActuators() != 2 {
		t.Fatalf("layout sizes: %d/%d/%d", l.NumBinary(), l.NumNumeric(), l.NumActuators())
	}
	if s, ok := l.BinarySlot(3); !ok || s != 1 {
		t.Errorf("BinarySlot(3) = (%d, %v), want (1, true)", s, ok)
	}
	if s, ok := l.NumericSlot(4); !ok || s != 1 {
		t.Errorf("NumericSlot(4) = (%d, %v), want (1, true)", s, ok)
	}
	if s, ok := l.ActuatorSlot(2); !ok || s != 0 {
		t.Errorf("ActuatorSlot(2) = (%d, %v), want (0, true)", s, ok)
	}
	if _, ok := l.BinarySlot(1); ok {
		t.Error("numeric device got a binary slot")
	}
	if l.BinaryID(1) != 3 || l.NumericID(0) != 1 || l.ActuatorID(1) != 5 {
		t.Error("slot->ID inverse mapping broken")
	}
}

func TestBuilderBasicWindowing(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, time.Minute)
	evts := []event.Event{
		{At: 5 * time.Second, Device: 0, Value: 1},   // binary slot 0, window 0
		{At: 10 * time.Second, Device: 1, Value: 20}, // numeric slot 0
		{At: 40 * time.Second, Device: 1, Value: 21}, // numeric slot 0
		{At: 61 * time.Second, Device: 3, Value: 1},  // window 1
		{At: 70 * time.Second, Device: 2, Value: 1},  // actuator on, window 1
		{At: 80 * time.Second, Device: 2, Value: 1},  // duplicate actuator on
		{At: 90 * time.Second, Device: 5, Value: 0},  // actuator OFF: not an activation
	}
	var got []*Observation
	for _, e := range evts {
		emitted, err := b.Add(e)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, emitted...)
	}
	if last := b.Flush(); last != nil {
		got = append(got, last)
	}
	if len(got) != 2 {
		t.Fatalf("got %d windows, want 2", len(got))
	}
	w0, w1 := got[0], got[1]
	if !w0.Binary[0] || w0.Binary[1] {
		t.Errorf("window 0 binary = %v", w0.Binary)
	}
	if len(w0.Numeric[0]) != 2 || w0.Numeric[0][0] != 20 || w0.Numeric[0][1] != 21 {
		t.Errorf("window 0 numeric[0] = %v", w0.Numeric[0])
	}
	if len(w0.Actuated) != 0 {
		t.Errorf("window 0 actuated = %v", w0.Actuated)
	}
	if !w1.Binary[1] {
		t.Errorf("window 1 binary = %v", w1.Binary)
	}
	if len(w1.Actuated) != 1 || w1.Actuated[0] != 2 {
		t.Errorf("window 1 actuated = %v, want [2]", w1.Actuated)
	}
}

func TestBuilderEmitsSkippedWindows(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, time.Minute)
	if _, err := b.Add(event.Event{At: 0, Device: 0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	emitted, err := b.Add(event.Event{At: 3*time.Minute + time.Second, Device: 0, Value: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Windows 0, 1, 2 should all be emitted (1 and 2 empty).
	if len(emitted) != 3 {
		t.Fatalf("emitted %d windows, want 3", len(emitted))
	}
	if emitted[1].Binary[0] || emitted[2].Binary[0] {
		t.Error("gap windows should be empty")
	}
	if emitted[0].Index != 0 || emitted[2].Index != 2 {
		t.Errorf("indices: %d, %d, %d", emitted[0].Index, emitted[1].Index, emitted[2].Index)
	}
}

func TestBuilderRejectsRegression(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, time.Minute)
	if _, err := b.Add(event.Event{At: 2 * time.Minute, Device: 0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(event.Event{At: time.Second, Device: 0, Value: 1}); err == nil {
		t.Error("time regression accepted")
	}
	if _, err := b.Add(event.Event{At: -time.Second, Device: 0, Value: 1}); err == nil {
		t.Error("negative time accepted")
	}
}

func TestBuilderIgnoresUnknownDevices(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, time.Minute)
	if _, err := b.Add(event.Event{At: 0, Device: 99, Value: 1}); err != nil {
		t.Fatalf("unknown device should be ignored, got %v", err)
	}
	o := b.Flush()
	if o == nil {
		t.Fatal("expected an in-progress window")
	}
	for _, bit := range o.Binary {
		if bit {
			t.Error("unknown device set a binary bit")
		}
	}
}

func TestBuilderDefaultDuration(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, 0)
	if b.Duration() != DefaultDuration {
		t.Errorf("Duration = %v, want %v", b.Duration(), DefaultDuration)
	}
}

func TestBinaryZeroValueEventDoesNotActivate(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, time.Minute)
	if _, err := b.Add(event.Event{At: 0, Device: 0, Value: 0}); err != nil {
		t.Fatal(err)
	}
	o := b.Flush()
	if o.Binary[0] {
		t.Error("value-0 binary event should not set the bit")
	}
}

func TestFromEventsPadsWindows(t *testing.T) {
	_, l := testDevices(t)
	evts := []event.Event{
		{At: 90 * time.Second, Device: 0, Value: 1}, // only window 1 has data
	}
	obs, err := FromEvents(l, time.Minute, evts, 4*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 4 {
		t.Fatalf("got %d windows, want 4", len(obs))
	}
	for i, o := range obs {
		if o.Index != i {
			t.Errorf("window %d has index %d", i, o.Index)
		}
	}
	if obs[0].Binary[0] || !obs[1].Binary[0] || obs[2].Binary[0] || obs[3].Binary[0] {
		t.Error("wrong window received the activation")
	}
}

func TestFromEventsHorizonCutsOff(t *testing.T) {
	_, l := testDevices(t)
	evts := []event.Event{
		{At: 30 * time.Second, Device: 0, Value: 1},
		{At: 5 * time.Minute, Device: 3, Value: 1}, // beyond horizon
	}
	obs, err := FromEvents(l, time.Minute, evts, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 2 {
		t.Fatalf("got %d windows, want 2", len(obs))
	}
	if obs[1].Binary[1] {
		t.Error("event beyond horizon leaked into a window")
	}
}

func TestFromEventsEmpty(t *testing.T) {
	_, l := testDevices(t)
	obs, err := FromEvents(l, time.Minute, nil, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 3 {
		t.Fatalf("got %d windows, want 3 empty", len(obs))
	}
}

func TestObservationClone(t *testing.T) {
	_, l := testDevices(t)
	o := l.NewObservation(7)
	o.Binary[0] = true
	o.Numeric[1] = []float64{1, 2}
	o.Actuated = []device.ID{2}
	c := o.Clone()
	c.Binary[0] = false
	c.Numeric[1][0] = 99
	c.Actuated[0] = 5
	if !o.Binary[0] || o.Numeric[1][0] != 1 || o.Actuated[0] != 2 {
		t.Error("Clone shares state with original")
	}
	if c.Index != 7 {
		t.Errorf("Clone index = %d, want 7", c.Index)
	}
}

func TestActuatedStaysSorted(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, time.Minute)
	// Activate actuator 5 before actuator 2 in the same window.
	if _, err := b.Add(event.Event{At: time.Second, Device: 5, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(event.Event{At: 2 * time.Second, Device: 2, Value: 1}); err != nil {
		t.Fatal(err)
	}
	o := b.Flush()
	if len(o.Actuated) != 2 || o.Actuated[0] != 2 || o.Actuated[1] != 5 {
		t.Errorf("Actuated = %v, want [2 5]", o.Actuated)
	}
}

func TestBuilderStateRoundTrip(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, time.Minute)
	feed := []event.Event{
		{At: 10 * time.Second, Device: 0, Value: 1},
		{At: 70 * time.Second, Device: 2, Value: 1},  // actuator on, window 1
		{At: 80 * time.Second, Device: 1, Value: 21}, // numeric sample
	}
	for _, e := range feed {
		if _, err := b.Add(e); err != nil {
			t.Fatal(err)
		}
	}

	// Snapshot mid-window, push through JSON like a real checkpoint, and
	// restore into a fresh builder.
	st := b.ExportState()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back BuilderState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	b2 := NewBuilder(l, time.Minute)
	if err := b2.RestoreState(back); err != nil {
		t.Fatal(err)
	}

	// The same continuation must produce identical windows from both.
	tail := []event.Event{
		{At: 90 * time.Second, Device: 2, Value: 1}, // dup actuator: must not double-count
		{At: 130 * time.Second, Device: 3, Value: 1},
	}
	var got1, got2 []*Observation
	for _, e := range tail {
		o1, err := b.Add(e)
		if err != nil {
			t.Fatal(err)
		}
		o2, err := b2.Add(e)
		if err != nil {
			t.Fatal(err)
		}
		got1 = append(got1, o1...)
		got2 = append(got2, o2...)
	}
	got1 = append(got1, b.Flush())
	got2 = append(got2, b2.Flush())
	if !reflect.DeepEqual(got1, got2) {
		t.Errorf("diverged after restore:\n original: %+v\n restored: %+v", got1, got2)
	}
	if len(got1) != 2 || got1[0].Index != 1 || len(got1[0].Actuated) != 1 {
		t.Errorf("window 1 actuations: %+v", got1[0])
	}
}

func TestBuilderRestoreValidates(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, time.Minute)
	bad := BuilderState{Cur: &Observation{Index: 0, Binary: make([]bool, 7)}}
	if err := b.RestoreState(bad); err == nil {
		t.Error("mis-shaped observation accepted")
	}
	bad2 := BuilderState{Floor: 5, Cur: &Observation{
		Index:   2,
		Binary:  make([]bool, l.NumBinary()),
		Numeric: make([][]float64, l.NumNumeric()),
	}}
	if err := b.RestoreState(bad2); err == nil {
		t.Error("observation behind floor accepted")
	}
	// Restoring an empty state onto a used builder resets it.
	if _, err := b.Add(event.Event{At: time.Second, Device: 0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreState(BuilderState{Floor: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Add(event.Event{At: time.Second, Device: 0, Value: 1}); err == nil {
		t.Error("pre-floor event accepted after restore")
	}
}

// TestBuilderRecycle: a recycled observation's backing arrays are reused
// for a later window, reset to empty, and folding into the reused window
// produces the same contents a fresh one would.
func TestBuilderRecycle(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, time.Minute)
	feed := func(evts ...event.Event) []*Observation {
		t.Helper()
		var out []*Observation
		for _, e := range evts {
			emitted, err := b.Add(e)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, emitted...)
		}
		return out
	}
	first := feed(
		event.Event{At: 5 * time.Second, Device: 0, Value: 1},
		event.Event{At: 10 * time.Second, Device: 1, Value: 20},
		event.Event{At: 20 * time.Second, Device: 2, Value: 1},
		event.Event{At: 61 * time.Second, Device: 3, Value: 1},
	)
	if len(first) != 1 {
		t.Fatalf("emitted %d windows, want 1", len(first))
	}
	if b.CurrentIndex() != 1 {
		t.Fatalf("CurrentIndex = %d, want 1", b.CurrentIndex())
	}
	recycled := first[0]
	binArr := &recycled.Binary[0]
	b.Recycle(recycled)

	// The 125s event opens window 2; the builder pops the recycled
	// observation for it and emits window 1. The 185s event then closes
	// window 2, emitting the recycled observation with the 125s reading.
	second := feed(event.Event{At: 125 * time.Second, Device: 1, Value: 42})
	if len(second) != 1 || second[0].Index != 1 {
		t.Fatalf("second emit: %d windows (first index %d), want window 1", len(second), second[0].Index)
	}
	third := feed(event.Event{At: 185 * time.Second, Device: 0, Value: 1})
	if len(third) != 1 {
		t.Fatalf("third emit: %d windows, want 1", len(third))
	}
	got := third[0]
	if got != recycled {
		t.Fatalf("builder did not reuse the recycled observation")
	}
	if &got.Binary[0] != binArr {
		t.Fatalf("recycled observation did not keep its backing array")
	}
	if got.Index != 2 {
		t.Fatalf("reused window index = %d, want 2", got.Index)
	}
	if got.Binary[0] || got.Binary[1] {
		t.Fatalf("reused window binary = %v, want stale bits cleared", got.Binary)
	}
	if len(got.Numeric[0]) != 1 || got.Numeric[0][0] != 42 {
		t.Fatalf("reused window numeric[0] = %v, want [42]", got.Numeric[0])
	}
	if len(got.Actuated) != 0 {
		t.Fatalf("reused window kept stale actuated: %v", got.Actuated)
	}
}

// TestBuilderRecycleRejectsForeignShape: an observation shaped for another
// layout is dropped, not pooled.
func TestBuilderRecycleRejectsForeignShape(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, time.Minute)
	b.Recycle(nil)
	b.Recycle(&Observation{Binary: make([]bool, 99)})
	if len(b.free) != 0 {
		t.Fatalf("freelist holds %d foreign observations", len(b.free))
	}
}

// TestBuilderSteadyStateNoObservationAlloc: once a window has been built
// and recycled, building the next one allocates no observation state.
func TestBuilderSteadyStateNoObservationAlloc(t *testing.T) {
	_, l := testDevices(t)
	b := NewBuilder(l, time.Minute)
	at := time.Duration(0)
	allocs := testing.AllocsPerRun(200, func() {
		at += time.Minute
		emitted, err := b.AdvanceTo(at + time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range emitted {
			b.Recycle(o)
		}
	})
	// One small slice header per emission is tolerated (the emitted slice
	// itself); the observation payloads must come from the freelist.
	if allocs > 1 {
		t.Fatalf("steady-state window turnover allocates %.1f times per window, want <= 1", allocs)
	}
}
