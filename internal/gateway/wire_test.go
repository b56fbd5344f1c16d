package gateway

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/coap"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wal"
	"repro/internal/wire"
)

// wireReplayResult captures everything detection-visible from one replay:
// the counters, every emitted alert, and the last alert's Explain trace.
type wireReplayResult struct {
	Stats     Stats
	Alerts    []Alert
	LastAlert Alert
	HasLast   bool
	Malformed int64
}

// replayOverWire streams evts through a fresh gateway via a real CoAP
// front + agent pair using the given wire format, then snapshots the
// detection output.
func replayOverWire(t *testing.T, ctx *core.Context, format WireFormat, evts []event.Event, end time.Duration) wireReplayResult {
	t.Helper()
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	front, err := ServeCoAP(gw, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	agent, err := NewAgent(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	agent.Format = format

	for _, e := range evts {
		if err := agent.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Advance(end); err != nil {
		t.Fatal(err)
	}
	res := wireReplayResult{Malformed: front.malformed.Value()}
	st, err := agent.Stats()
	if err != nil {
		t.Fatal(err)
	}
	res.Stats = st
drain:
	for {
		select {
		case a := <-gw.Alerts():
			res.Alerts = append(res.Alerts, a)
		default:
			break drain
		}
	}
	res.LastAlert, res.HasLast = gw.LastAlert()
	return res
}

// TestWireFormatsBitIdentical replays the same faulty stream through a
// JSON agent and a binary agent and requires identical detection output:
// same counters, same alerts, same Explain trace. Event times are
// ms-aligned first — the JSON wire quantizes At to milliseconds while the
// binary wire carries nanoseconds, so alignment is what makes the two
// encodings carry the same stream.
func TestWireFormatsBitIdentical(t *testing.T) {
	h, ctx := trainedHome(t)
	target, ok := h.Registry().Lookup("light-kitchen")
	if !ok {
		t.Fatal("no kitchen light")
	}
	// Fail-stop the kitchen light mid-replay so the comparison covers a
	// real detection episode, not just clean counters.
	start := 3*24*60 + 12*60
	raw := h.Events(start, start+6*60)
	evts := make([]event.Event, 0, len(raw))
	for _, e := range raw {
		e.At -= time.Duration(start) * time.Minute
		e.At = e.At.Truncate(time.Millisecond)
		if e.Device == target && e.At >= 30*time.Minute {
			continue
		}
		evts = append(evts, e)
	}

	jsonRes := replayOverWire(t, ctx, WireJSON, evts, 6*time.Hour)
	binRes := replayOverWire(t, ctx, WireBinary, evts, 6*time.Hour)

	if jsonRes.Malformed != 0 || binRes.Malformed != 0 {
		t.Fatalf("malformed payloads on a clean link: json=%d binary=%d", jsonRes.Malformed, binRes.Malformed)
	}
	if jsonRes.Stats != binRes.Stats {
		t.Errorf("stats diverged:\n json   %+v\n binary %+v", jsonRes.Stats, binRes.Stats)
	}
	if jsonRes.Stats.Alerts == 0 {
		t.Error("replay produced no alerts; the comparison is vacuous")
	}
	if jsonRes.HasLast != binRes.HasLast {
		t.Fatalf("last alert presence diverged: json=%v binary=%v", jsonRes.HasLast, binRes.HasLast)
	}
	mustJSON := func(v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := mustJSON(jsonRes.Alerts), mustJSON(binRes.Alerts); a != b {
		t.Errorf("alerts diverged:\n json   %s\n binary %s", a, b)
	}
	if a, b := mustJSON(jsonRes.LastAlert), mustJSON(binRes.LastAlert); a != b {
		t.Errorf("last alert (Explain) diverged:\n json   %s\n binary %s", a, b)
	}
}

// TestIngestBatchZeroAllocSameWindow guards the pooled hot path: decoding
// a binary batch into pooled scratch and ingesting it into the open window
// must not allocate once the gateway has seen the devices.
func TestIngestBatchZeroAllocSameWindow(t *testing.T) {
	h, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	// Binary-sensor events carry no per-sample append, so a repeated batch
	// is pure pooled-path work: map hits, builder fold, no growth.
	dev := h.Layout().BinaryID(0)
	batch := make([]event.Event, 64)
	for i := range batch {
		batch[i] = event.Event{At: 30 * time.Second, Device: dev, Value: 1}
	}
	payload := wire.AppendReport(nil, batch)
	scratch := make([]event.Event, 0, len(batch))
	// Warm up: first contact inserts the device into lastSeen/liveIDs.
	if err := gw.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		b, err := wire.DecodeBatch(payload, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := gw.IngestBatch(b.Events); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("decode+ingest of a clean batch allocates %v times per run, want 0", avg)
	}

	// Single-event Ingest is a batch of one and must stay allocation-free
	// with a WAL attached.
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	durable, err := New(ctx, WithConfig(core.Config{}), WithWAL(w))
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.Ingest(batch[0]); err != nil {
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(100, func() {
		if err := durable.Ingest(batch[0]); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("durable single-event Ingest allocates %v times per run, want 0", avg)
	}
}

// TestJSONReportRefusedWhole: a JSON /report whose third reading regresses
// behind the horizon is refused with 4.00 and applies nothing — the
// report is one IngestBatch, exactly like a binary batch.
func TestJSONReportRefusedWhole(t *testing.T) {
	h, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.AdvanceTo(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	before := gw.Stats()
	dev := int(h.Layout().BinaryID(0))
	payload, err := json.Marshal([]WireEvent{
		{AtMS: (10*time.Minute + 5*time.Second).Milliseconds(), Device: dev, Value: 1},
		{AtMS: (10*time.Minute + 10*time.Second).Milliseconds(), Device: dev, Value: 0},
		{AtMS: (9*time.Minute + 30*time.Second).Milliseconds(), Device: dev, Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newFront(gw)
	req := &coap.Message{Code: coap.CodePOST, Payload: payload}
	req.SetPath("report")
	resp := f.handle(req)
	if resp.Code != coap.CodeBadRequest || string(resp.Payload) != ReasonRejected {
		t.Errorf("regressing report answered %v %q, want 4.00 %q", resp.Code, resp.Payload, ReasonRejected)
	}
	if got := gw.Stats(); got != before {
		t.Errorf("refused report changed stats:\n before %+v\n after  %+v", before, got)
	}
}
