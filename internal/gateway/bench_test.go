package gateway

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/simhome"
	"repro/internal/wal"
)

// benchBatch is the events per batch of the stage benchmarks below.
const benchBatch = 64

// dayBatches returns a function that fills dst with the i-th 64-event batch
// of an endless replay of a simulated D_houseA day, rebased to time zero.
// The day repeats, shifted a day later each pass, so the stream stays
// monotonic for any i.
func dayBatches(h *simhome.Home) func(dst []event.Event, i int) []event.Event {
	start := 3 * 24 * 60
	var day []event.Event
	for _, e := range h.Events(start, start+24*60) {
		e.At -= time.Duration(start) * time.Minute
		day = append(day, e)
	}
	nBatches := (len(day) + benchBatch - 1) / benchBatch
	return func(dst []event.Event, i int) []event.Event {
		k, shift := i%nBatches, time.Duration(i/nBatches)*24*time.Hour
		dst = dst[:0]
		for _, e := range day[k*benchBatch : min((k+1)*benchBatch, len(day))] {
			e.At += shift
			dst = append(dst, e)
		}
		return dst
	}
}

// BenchmarkGatewayIngestBatch feeds a trained gateway a simulated D_houseA
// day in 64-event batches, one batch per op: window build, detector and
// the gateway's own bookkeeping, with no WAL.
//
//	go test -run '^$' -bench BenchmarkGatewayIngestBatch ./internal/gateway/
func BenchmarkGatewayIngestBatch(b *testing.B) {
	h, ctx := trainedHome(b)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		b.Fatal(err)
	}
	next := dayBatches(h)
	batch := make([]event.Event, 0, benchBatch)
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = next(batch, i)
		if err := gw.IngestBatch(batch); err != nil {
			b.Fatal(err)
		}
		events += len(batch)
		drainAlerts(gw)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// flushRig serves a trained gateway logging to a SyncNever WAL over CoAP
// on loopback, and dials an agent to it. flush(i) posts the i-th day batch
// (see dayBatches) as one Agent.Flush round trip and returns its size.
func flushRig(tb testing.TB) (flush func(i int) int) {
	tb.Helper()
	h, ctx := trainedHome(tb)
	w, err := wal.Open(tb.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.Close() })
	gw, err := New(ctx, WithConfig(core.Config{}), WithWAL(w))
	if err != nil {
		tb.Fatal(err)
	}
	front, err := ServeCoAP(gw, "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { front.Close() })
	agent, err := NewAgent(front.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { agent.cli.Close() })
	next := dayBatches(h)
	return func(i int) int {
		agent.pending = next(agent.pending, i)
		n := len(agent.pending)
		if err := agent.Flush(); err != nil {
			tb.Fatal(err)
		}
		drainAlerts(gw)
		return n
	}
}

// BenchmarkAgentFlush is the device→gateway round trip, one 64-event batch
// per op: DWB1 encode, CoAP exchange on loopback, the server's dedup and
// worker hop, WAL append (SyncNever) and gateway ingest. Allocations count
// both ends, which share the process. At 65,536 ops or more the agent's
// 16-bit Message ID wraps within the exchange lifetime.
//
//	go test -run '^$' -bench BenchmarkAgentFlush ./internal/gateway/
func BenchmarkAgentFlush(b *testing.B) {
	flush := flushRig(b)
	events := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += flush(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// TestAgentFlushAllocBytes pins the heap bytes one Agent.Flush round trip
// allocates, both ends together. The client reads every response into one
// buffer of its own; a 64 KiB receive buffer per exchange would put this
// near 70 KB.
func TestAgentFlushAllocBytes(t *testing.T) {
	flush := flushRig(t)
	const warm, rounds = 64, 256
	for i := 0; i < warm; i++ {
		flush(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+rounds; i++ {
		flush(i)
	}
	runtime.ReadMemStats(&after)
	perFlush := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d bytes allocated per Agent.Flush round trip", perFlush)
	if perFlush >= 16<<10 {
		t.Errorf("Agent.Flush allocates %d bytes per round trip, want < %d", perFlush, 16<<10)
	}
}
