package window

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/event"
)

// refBuilder is a map-keyed reference for Builder: every device ID is
// looked up in one map per kind and the actuators already counted in the
// open window live in a map[device.ID]bool. It keeps the builder's
// windowing rules but none of its table or freelist machinery, so
// FuzzBuilderFold can hold the array-indexed fold to it.
type refBuilder struct {
	layout      *Layout
	duration    time.Duration
	binarySlot  map[device.ID]int
	numericSlot map[device.ID]int
	actSlot     map[device.ID]int
	cur         *Observation
	floor       int
	actSeen     map[device.ID]bool
}

func newRefBuilder(l *Layout, d time.Duration) *refBuilder {
	r := &refBuilder{
		layout:      l,
		duration:    d,
		binarySlot:  make(map[device.ID]int),
		numericSlot: make(map[device.ID]int),
		actSlot:     make(map[device.ID]int),
		actSeen:     make(map[device.ID]bool),
	}
	reg := l.Registry()
	for i, id := range reg.Binaries() {
		r.binarySlot[id] = i
	}
	for i, id := range reg.Numerics() {
		r.numericSlot[id] = i
	}
	for i, id := range reg.Actuators() {
		r.actSlot[id] = i
	}
	return r
}

func (r *refBuilder) add(e event.Event) ([]*Observation, error) {
	if e.At < 0 {
		return nil, errRef
	}
	idx := int(e.At / r.duration)
	if r.cur == nil {
		if idx < r.floor {
			return nil, errRef
		}
		r.cur = r.layout.NewObservation(r.floor)
	}
	if idx < r.cur.Index {
		return nil, errRef
	}
	var out []*Observation
	for idx > r.cur.Index {
		out = append(out, r.cur)
		r.start(r.cur.Index + 1)
	}
	r.fold(e)
	return out, nil
}

func (r *refBuilder) advanceTo(t time.Duration) ([]*Observation, error) {
	if t < 0 {
		return nil, errRef
	}
	target := int(t / r.duration)
	if r.cur == nil {
		if target <= r.floor {
			return nil, nil
		}
		r.cur = r.layout.NewObservation(r.floor)
	}
	var out []*Observation
	for r.cur.Index < target {
		out = append(out, r.cur)
		r.start(r.cur.Index + 1)
	}
	return out, nil
}

func (r *refBuilder) flush() *Observation {
	o := r.cur
	r.cur = nil
	r.actSeen = make(map[device.ID]bool)
	if o != nil {
		r.floor = o.Index + 1
	}
	return o
}

func (r *refBuilder) start(idx int) {
	r.cur = r.layout.NewObservation(idx)
	r.floor = idx
	r.actSeen = make(map[device.ID]bool)
}

func (r *refBuilder) fold(e event.Event) {
	if s, ok := r.binarySlot[e.Device]; ok {
		if e.Value != 0 {
			r.cur.Binary[s] = true
		}
		return
	}
	if s, ok := r.numericSlot[e.Device]; ok {
		r.cur.Numeric[s] = append(r.cur.Numeric[s], e.Value)
		return
	}
	if _, ok := r.actSlot[e.Device]; ok && e.Value != 0 && !r.actSeen[e.Device] {
		r.actSeen[e.Device] = true
		r.cur.Actuated = insertSorted(r.cur.Actuated, e.Device)
	}
}

func (r *refBuilder) exportState() BuilderState {
	st := BuilderState{Floor: r.floor}
	if r.cur != nil {
		st.Cur = r.cur.Clone()
	}
	for id := range r.actSeen {
		st.ActSeen = insertSorted(st.ActSeen, id)
	}
	return st
}

// errRef stands for any refusal; the fuzz target compares only whether
// both builders refuse, not the wording.
var errRef = errors.New("refused")

// sameObservation compares observations by content. A recycled
// observation carries empty rather than nil slices, which is not a
// difference the detector can see.
func sameObservation(a, b *Observation) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Index != b.Index || len(a.Binary) != len(b.Binary) || len(a.Numeric) != len(b.Numeric) || len(a.Actuated) != len(b.Actuated) {
		return false
	}
	for i := range a.Binary {
		if a.Binary[i] != b.Binary[i] {
			return false
		}
	}
	for i := range a.Numeric {
		if len(a.Numeric[i]) != len(b.Numeric[i]) {
			return false
		}
		for j := range a.Numeric[i] {
			if a.Numeric[i][j] != b.Numeric[i][j] {
				return false
			}
		}
	}
	for i := range a.Actuated {
		if a.Actuated[i] != b.Actuated[i] {
			return false
		}
	}
	return true
}

func sameObservations(a, b []*Observation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameObservation(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameState(a, b BuilderState) bool {
	if a.Floor != b.Floor || !sameObservation(a.Cur, b.Cur) || len(a.ActSeen) != len(b.ActSeen) {
		return false
	}
	for i := range a.ActSeen {
		if a.ActSeen[i] != b.ActSeen[i] {
			return false
		}
	}
	return true
}

// foldDurations are the window lengths FuzzBuilderFold runs under: the
// paper's minute, one and seven nanoseconds (every event time a window
// boundary or one off it), and lengths so long the stream clock holds only
// a few windows, whose last window ends at or past math.MaxInt64.
var foldDurations = []time.Duration{time.Minute, 1, 7, math.MaxInt64 / 3, math.MaxInt64/2 + 1, math.MaxInt64}

// FuzzBuilderFold drives the builder and the map-keyed reference with the
// same operations and requires identical windows and identical exported
// state after every step. durSel picks the window length from
// foldDurations. Each input byte triple is one operation: the first byte
// picks the operation and the device, the second the value, the third a
// signed time step of 7/60 of a window (7 s for the minute; at least 1 ns)
// — a negative step tests the regression refusal, or an out-of-order event
// within one window. Operation 12 instead jumps to the absolute time k
// windows plus a signed nanosecond offset (k the second byte, the offset
// the third) and adds an event there: window boundaries, one nanosecond
// either side of them, and, for the long lengths, times next to
// math.MaxInt64 or wrapped negative. Device IDs cover every registered
// device, both registry edges (-1 and reg.Len()) and far-out ints, since a
// ghost ID off the wire can be any int. Emitted windows are recycled into
// the builder, so its freelist is exercised too.
func FuzzBuilderFold(f *testing.F) {
	f.Add(uint8(0), []byte{0x00, 1, 1, 0x02, 1, 1, 0x02, 1, 1, 0x05, 1, 9, 0x01, 3, 0})
	f.Add(uint8(0), []byte{0x06, 1, 1, 0x07, 1, 0, 0x08, 2, 3, 0x09, 1, 0, 0x0a, 1, 9, 0xd0, 0, 0})
	f.Add(uint8(0), []byte{0x02, 1, 2, 0xf0, 0, 0, 0x02, 1, 1, 0x05, 1, 1, 0xe0, 0, 20, 0x02, 0, 0xfe})
	f.Add(uint8(0), []byte{0x01, 0, 0, 0x04, 4, 1, 0x01, 3, 200, 0x05, 0, 0, 0x05, 5, 0, 0xf0, 0, 0})
	// Boundaries: k windows, one nanosecond before k+1, exactly k+1, then
	// out of order inside window k+1 and back across into window k.
	f.Add(uint8(0), []byte{0xc0, 2, 0, 0xc1, 3, 0xff, 0xc2, 3, 0, 0xc0, 3, 5, 0xc1, 3, 1, 0xc2, 3, 0xff, 0xe0, 0, 0})
	// A checkpoint round trip between two events of one window, then the
	// next window's first nanosecond.
	f.Add(uint8(0), []byte{0xc0, 4, 7, 0xf0, 0, 0, 0xc1, 4, 9, 0xc2, 5, 0, 0xd0, 0, 0, 0xc0, 5, 1})
	// Back into a window the builder has already left, by AdvanceTo or by
	// Flush: refused, not folded.
	f.Add(uint8(0), []byte{0xc0, 2, 0, 0xe0, 0, 9, 0x00, 1, 0xfe})
	f.Add(uint8(0), []byte{0xc0, 2, 0, 0xd0, 0, 0, 0x00, 1, 0xff})
	// Negative times: a jump below zero, a step below zero.
	f.Add(uint8(0), []byte{0xc0, 0, 0xff, 0x00, 1, 1, 0x01, 1, 0xff, 0xe0, 0, 0xf6})
	// One-nanosecond windows: every time is a boundary.
	f.Add(uint8(1), []byte{0x00, 1, 1, 0x01, 1, 0, 0x02, 1, 1, 0x01, 1, 0xff, 0xc0, 9, 0, 0xc1, 9, 0, 0xe0, 0, 3})
	f.Add(uint8(2), []byte{0xc0, 1, 0xff, 0xc1, 1, 0, 0xc2, 1, 6, 0xc0, 1, 0xff, 0xc1, 2, 0})
	// Near math.MaxInt64: the last window that fits the clock, its final
	// nanosecond, and a jump that wraps negative.
	f.Add(uint8(3), []byte{0xc0, 2, 0, 0xc1, 3, 0xfe, 0xc2, 3, 0, 0xc0, 3, 1, 0xc1, 3, 2, 0xc2, 4, 0})
	f.Add(uint8(4), []byte{0xc0, 0, 5, 0xc1, 1, 0xff, 0xc2, 1, 0, 0xc0, 1, 0x7f, 0xe0, 0, 1, 0xc1, 2, 0})
	f.Add(uint8(5), []byte{0xc0, 0, 0, 0xc1, 1, 0xff, 0xc2, 1, 0, 0xc0, 1, 0xfe, 0xd0, 0, 0, 0xc1, 1, 0})
	f.Fuzz(func(t *testing.T, durSel uint8, in []byte) {
		reg, l := testDevices(t)
		n := reg.Len()
		ids := []device.ID{0, 1, 2, 3, 4, 5, -1, device.ID(n), 1 << 40, math.MaxInt, math.MinInt, -7}
		values := []float64{0, 1, -1, 20.5, 1e9, math.Inf(1)}
		dur := foldDurations[int(durSel)%len(foldDurations)]
		step := max(dur/60*7, 1)
		b := NewBuilder(l, dur)
		r := newRefBuilder(l, dur)
		var at time.Duration
		for i := 0; i+2 < len(in); i += 3 {
			op, sel := in[i]>>4, int(in[i]&0x0f)
			if op == 12 {
				at = time.Duration(in[i+1])*dur + time.Duration(int8(in[i+2]))
			} else {
				at += time.Duration(int8(in[i+2])) * step
			}
			switch op {
			case 13: // flush the open window
				got, want := b.Flush(), r.flush()
				if !sameObservation(got, want) {
					t.Fatalf("op %d: Flush = %+v, reference %+v", i/3, got, want)
				}
				b.Recycle(got)
			case 14: // advance the stream clock
				got, gerr := b.AdvanceTo(at)
				want, werr := r.advanceTo(at)
				if (gerr == nil) != (werr == nil) || !sameObservations(got, want) {
					t.Fatalf("op %d: AdvanceTo(%s) = %+v (%v), reference %+v (%v)", i/3, at, got, gerr, want, werr)
				}
				for _, o := range got {
					b.Recycle(o)
				}
			case 15: // checkpoint round trip through a fresh builder
				nb := NewBuilder(l, dur)
				if err := nb.RestoreState(b.ExportState()); err != nil {
					t.Fatalf("op %d: restore own state: %v", i/3, err)
				}
				b = nb
			default:
				e := event.Event{At: at, Device: ids[sel%len(ids)], Value: values[int(in[i+1])%len(values)]}
				if op == 12 {
					e.Value = 1
				}
				got, gerr := b.Add(e)
				want, werr := r.add(e)
				if (gerr == nil) != (werr == nil) || !sameObservations(got, want) {
					t.Fatalf("op %d: Add(%+v) = %+v (%v), reference %+v (%v)", i/3, e, got, gerr, want, werr)
				}
				for _, o := range got {
					b.Recycle(o)
				}
			}
			if got, want := b.ExportState(), r.exportState(); !sameState(got, want) {
				t.Fatalf("op %d: ExportState = floor %d cur %+v act %v, reference floor %d cur %+v act %v",
					i/3, got.Floor, got.Cur, got.ActSeen, want.Floor, want.Cur, want.ActSeen)
			}
		}
	})
}
