package gateway

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
)

// BenchmarkGatewayIngestBatch feeds a trained gateway a simulated D_houseA
// day in 64-event batches, one batch per op: window build, detector and
// the gateway's own bookkeeping, with no WAL. The day repeats, shifted a
// day later each pass, so the stream stays monotonic for any b.N.
//
//	go test -run '^$' -bench BenchmarkGatewayIngestBatch ./internal/gateway/
func BenchmarkGatewayIngestBatch(b *testing.B) {
	h, ctx := trainedHome(b)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		b.Fatal(err)
	}
	const batchSize = 64
	start := 3 * 24 * 60
	var day []event.Event
	for _, e := range h.Events(start, start+24*60) {
		e.At -= time.Duration(start) * time.Minute
		day = append(day, e)
	}
	nBatches := (len(day) + batchSize - 1) / batchSize
	batch := make([]event.Event, 0, batchSize)
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, shift := i%nBatches, time.Duration(i/nBatches)*24*time.Hour
		batch = batch[:0]
		for _, e := range day[k*batchSize : min((k+1)*batchSize, len(day))] {
			e.At += shift
			batch = append(batch, e)
		}
		if err := gw.IngestBatch(batch); err != nil {
			b.Fatal(err)
		}
		events += len(batch)
		for len(gw.Alerts()) > 0 {
			<-gw.Alerts()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
