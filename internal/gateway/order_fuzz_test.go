package gateway

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/event"
)

// refCheckOrder is CheckOrder as a plain division per event, the reference
// FuzzCheckOrder holds the same-window fast path to.
func refCheckOrder(evts []event.Event, horizon time.Duration, idx int, dur time.Duration) error {
	for _, e := range evts {
		if e.At < horizon {
			return fmt.Errorf("gateway: event at %s regresses behind %s", e.At, horizon)
		}
		w := int(e.At / dur)
		if w < idx {
			return fmt.Errorf("gateway: event at %s regresses before window %d", e.At, idx)
		}
		idx = w
	}
	return nil
}

// orderTimes packs event times as the fuzz input's little-endian int64s.
func orderTimes(ts ...time.Duration) []byte {
	var b []byte
	for _, t := range ts {
		b = binary.LittleEndian.AppendUint64(b, uint64(t))
	}
	return b
}

// FuzzCheckOrder requires CheckOrder to return exactly the reference's
// error (or nil) for any window length, horizon, starting window index and
// event times. The times are the input's little-endian int64s; a
// non-positive window length is not a valid call and is skipped.
func FuzzCheckOrder(f *testing.F) {
	const m = time.Minute
	f.Add(int64(m), int64(0), int64(0), orderTimes(0, m-1, m, 2*m-1, 2*m, 5*m-1, 5*m))
	f.Add(int64(m), int64(0), int64(2), orderTimes(2*m-1, 2*m))
	f.Add(int64(m), int64(0), int64(1), orderTimes(m+30*time.Second, m+10*time.Second, m, 2*m-1, m+5))
	f.Add(int64(m), int64(0), int64(3), orderTimes(3*m+1, 3*m, 3*m-1))
	f.Add(int64(m), int64(-m), int64(0), orderTimes(-m, -m+1, -1, 0, -1))
	f.Add(int64(m), int64(math.MinInt64), int64(-1), orderTimes(-61*time.Second, -m, -59*time.Second, -1, 0))
	f.Add(int64(m), int64(math.MinInt64), int64(-5), orderTimes(-m, -30*time.Second, -m))
	f.Add(int64(1), int64(0), int64(0), orderTimes(0, 1, 1, 2, 1, 7, 6))
	f.Add(int64(1), int64(0), int64(math.MaxInt64), orderTimes(math.MaxInt64-1, math.MaxInt64))
	f.Add(int64(m), int64(0), int64(0), orderTimes(math.MaxInt64-1, math.MaxInt64, math.MaxInt64-m, math.MaxInt64))
	f.Add(int64(math.MaxInt64/2+1), int64(0), int64(0), orderTimes(math.MaxInt64/2, math.MaxInt64/2+1, math.MaxInt64-1, math.MaxInt64))
	f.Add(int64(math.MaxInt64), int64(0), int64(0), orderTimes(0, math.MaxInt64-1, math.MaxInt64, 1))
	f.Add(int64(4), int64(0), int64(1<<62), orderTimes(1, 4, 5))
	f.Fuzz(func(t *testing.T, dur, horizon, idx int64, raw []byte) {
		if dur <= 0 {
			return
		}
		var evts []event.Event
		for len(raw) >= 8 {
			evts = append(evts, event.Event{At: time.Duration(binary.LittleEndian.Uint64(raw))})
			raw = raw[8:]
		}
		d, h, i := time.Duration(dur), time.Duration(horizon), int(idx)
		got, want := CheckOrder(evts, h, i, d), refCheckOrder(evts, h, i, d)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("CheckOrder(dur %d, horizon %d, idx %d, %v) = %v, reference %v", dur, horizon, idx, evts, got, want)
		}
	})
}
