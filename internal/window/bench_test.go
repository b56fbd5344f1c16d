package window_test

import (
	"testing"
	"time"

	"repro/internal/simhome"
	"repro/internal/window"
)

// BenchmarkBuilderAdd folds a simulated D_houseA day into windows, one
// event per op, recycling every emitted window the way the gateway does.
// The day repeats, shifted a day later each pass, so the stream stays
// monotonic for any b.N.
//
//	go test -run '^$' -bench BenchmarkBuilderAdd ./internal/window/
func BenchmarkBuilderAdd(b *testing.B) {
	spec := simhome.SpecDHouseA()
	spec.Hours = 24
	h, err := simhome.New(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	day := time.Duration(spec.Hours) * time.Hour
	evts := h.Events(0, h.Windows())
	if len(evts) == 0 {
		b.Fatal("empty stream")
	}
	bld := window.NewBuilder(h.Layout(), time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := evts[i%len(evts)]
		e.At += time.Duration(i/len(evts)) * day
		done, err := bld.Add(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range done {
			bld.Recycle(o)
		}
	}
}
