package hub

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/coap"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/simhome"
)

// TestHubWireFormatsEquivalent replays the same faulty stream into two
// tenants of one hub — one over the legacy JSON wire, one over binary
// batches — and requires identical per-home detection output. Event times
// are ms-aligned so both encodings carry the same stream (JSON quantizes
// At to milliseconds).
func TestHubWireFormatsEquivalent(t *testing.T) {
	h, cctx := trained(t)
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
	var evts []event.Event
	for _, e := range faulty.Events(start, start+2*60) {
		e.At -= time.Duration(start) * time.Minute
		e.At = e.At.Truncate(time.Millisecond)
		evts = append(evts, e)
	}

	hub, err := New(WithShards(2), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for _, home := range []string{"json", "binary"} {
		if _, err := hub.Register(home, cctx, tenantGwOpts...); err != nil {
			t.Fatal(err)
		}
	}
	front, err := ServeCoAP(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	for _, home := range []string{"json", "binary"} {
		agent, err := gateway.NewAgent(front.Addr())
		if err != nil {
			t.Fatal(err)
		}
		agent.Home = home
		if home == "json" {
			agent.Format = gateway.WireJSON
		}
		for _, e := range evts {
			if err := agent.Report(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := agent.Advance(streamEnd); err != nil {
			t.Fatal(err)
		}
		if err := agent.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.DrainAll(); err != nil {
		t.Fatal(err)
	}

	tnJSON, _ := hub.Tenant("json")
	tnBin, _ := hub.Tenant("binary")
	if tnJSON.Stats() != tnBin.Stats() {
		t.Errorf("stats diverged:\n json   %+v\n binary %+v", tnJSON.Stats(), tnBin.Stats())
	}
	if tnJSON.Stats().Violations == 0 {
		t.Error("faulty stream produced no violations; the comparison is vacuous")
	}
	total := int(tnJSON.Stats().Alerts + tnBin.Stats().Alerts)
	byHome := collectAlerts(t, hub, total)
	if !reflect.DeepEqual(byHome["json"], byHome["binary"]) {
		t.Errorf("alert sequences diverged: json=%d binary=%d alerts",
			len(byHome["json"]), len(byHome["binary"]))
	}
	if f := front.malformed.Value(); f != 0 {
		t.Errorf("malformed counter = %d on a clean link", f)
	}
}

// TestHubJSONReportRefusedWhole: a JSON /report is one IngestBatch op. A
// report whose third reading regresses behind the horizon into an earlier
// window is refused with 4.00 at the front; one that regresses behind the
// horizon within the open window is queued (the front cannot see the
// tenant's horizon) and refused whole by the tenant gateway. Neither
// applies any of its readings.
func TestHubJSONReportRefusedWhole(t *testing.T) {
	h, cctx := trained(t)
	hub, err := New(WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	tn, err := hub.Register("casa", cctx, tenantGwOpts...)
	if err != nil {
		t.Fatal(err)
	}
	f := newFront(hub, "")
	dev := int(h.Layout().BinaryID(0))
	advance := func(to time.Duration) {
		t.Helper()
		if err := hub.Advance("casa", to); err != nil {
			t.Fatal(err)
		}
		if err := hub.DrainAll(); err != nil {
			t.Fatal(err)
		}
	}
	report := func(at ...time.Duration) *coap.Message {
		t.Helper()
		batch := make([]gateway.WireEvent, len(at))
		for i, a := range at {
			batch[i] = gateway.WireEvent{AtMS: a.Milliseconds(), Device: dev, Value: float64(i % 2)}
		}
		payload, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		req := &coap.Message{Code: coap.CodePOST, Payload: payload}
		req.SetPath("report/casa")
		resp := f.handle(req)
		if err := hub.DrainAll(); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	advance(10 * time.Minute)
	before := tn.Stats()
	resp := report(10*time.Minute+5*time.Second, 10*time.Minute+10*time.Second, 9*time.Minute+30*time.Second)
	if resp.Code != coap.CodeBadRequest || string(resp.Payload) != gateway.ReasonRejected {
		t.Errorf("report regressing into an earlier window answered %v %q, want 4.00 %q",
			resp.Code, resp.Payload, gateway.ReasonRejected)
	}
	if got := tn.Stats(); got != before {
		t.Errorf("refused report changed stats:\n before %+v\n after  %+v", before, got)
	}

	advance(20*time.Minute + 30*time.Second)
	before = tn.Stats()
	errs := hub.met.ingestErrors.Value()
	resp = report(20*time.Minute+40*time.Second, 20*time.Minute+45*time.Second, 20*time.Minute+20*time.Second)
	if resp.Code != coap.CodeChanged {
		t.Errorf("report regressing within the open window answered %v %q, want 2.04", resp.Code, resp.Payload)
	}
	if got := tn.Stats(); got != before {
		t.Errorf("refused batch changed stats:\n before %+v\n after  %+v", before, got)
	}
	if got := hub.met.ingestErrors.Value() - errs; got != 1 {
		t.Errorf("ingest errors grew by %d, want 1", got)
	}
}
