package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/coap"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Wire format for device reports: devices POST a batch of readings to
// /report; the gateway windows them and runs DICE. A device may also POST
// /advance to push stream time forward during silent stretches (the
// simulated aggregators do this once per minute), GET /stats for the
// gateway counters, GET /liveness for the silence tracker, and GET
// /context for the active context version (including whether it carries
// the interval sketches the timing check needs).
//
// Two encodings share the same resource paths, negotiated by sniffing the
// payload's first bytes: the binary batch format of internal/wire (magic
// "DWB1") and the legacy JSON arrays below. JSON devices keep working
// unmodified; binary devices get the zero-copy decode path. Error
// responses carry stable short reason codes, never internal error text —
// the detail stays on the gateway's telemetry (dice_gw_malformed_total)
// rather than being echoed to an unauthenticated UDP peer.

// Stable CodeBadRequest reason codes. Remote peers see only these;
// anything more specific is observable via telemetry.
const (
	// ReasonBadPayload: the payload decoded as neither a binary batch nor
	// the legacy JSON schema (or failed its CRC).
	ReasonBadPayload = "bad-payload"
	// ReasonRejected: the payload decoded, but the gateway refused it
	// (time regression, ingest hook veto).
	ReasonRejected = "rejected"
	// ReasonMethod: the resource requires a POST.
	ReasonMethod = "method-not-allowed"
)

// metricGwMalformed counts report/advance payloads that failed to decode.
const metricGwMalformed = "dice_gw_malformed_total"

// WireEvent is one reading in a report payload.
type WireEvent struct {
	// AtMS is the stream-time offset in milliseconds.
	AtMS int64 `json:"at"`
	// Device is the device ID in the shared registry.
	Device int `json:"d"`
	// Value is the reading.
	Value float64 `json:"v"`
}

// DecodeJSONReport parses a JSON /report payload (an array of WireEvent)
// and appends its readings to dst as events. Fronts decode into pooled
// scratch and hand the whole report to one IngestBatch, so a report is
// applied or refused as a unit, exactly like a binary batch.
func DecodeJSONReport(payload []byte, dst []event.Event) ([]event.Event, error) {
	var batch []WireEvent
	if err := json.Unmarshal(payload, &batch); err != nil {
		return dst, err
	}
	for _, w := range batch {
		dst = append(dst, event.Event{
			At:     time.Duration(w.AtMS) * time.Millisecond,
			Device: device.ID(w.Device),
			Value:  w.Value,
		})
	}
	return dst, nil
}

// wireAdvance is the /advance payload.
type wireAdvance struct {
	AtMS int64 `json:"at"`
}

// Front serves the gateway's CoAP API.
type Front struct {
	gw        *Gateway
	srv       *coap.Server
	malformed *telemetry.Counter
}

// ServeCoAP starts the CoAP front end on addr (":0" picks a free port).
// The server's transport counters register against the gateway's registry,
// so they ride along on /metrics.
func ServeCoAP(gw *Gateway, addr string, opts ...coap.ServerOption) (*Front, error) {
	f := newFront(gw)
	srv, err := coap.ListenAndServe(addr, f.handle,
		append([]coap.ServerOption{coap.WithTelemetry(gw.Telemetry())}, opts...)...)
	if err != nil {
		return nil, err
	}
	f.srv = srv
	return f, nil
}

// ServeCoAPConn starts the front end on an existing packet conn — e.g. a
// chaos-wrapped one — and takes ownership of it.
func ServeCoAPConn(gw *Gateway, conn net.PacketConn, cfg coap.ServerConfig) (*Front, error) {
	f := newFront(gw)
	srv, err := coap.Serve(conn, f.handle,
		coap.WithServerConfig(cfg), coap.WithTelemetry(gw.Telemetry()))
	if err != nil {
		return nil, err
	}
	f.srv = srv
	return f, nil
}

func newFront(gw *Gateway) *Front {
	return &Front{
		gw:        gw,
		malformed: gw.Telemetry().Counter(metricGwMalformed, "Report/advance payloads that failed to decode (JSON or binary)."),
	}
}

// Addr returns the bound UDP address string.
func (f *Front) Addr() string { return f.srv.Addr().String() }

// Close stops the front end.
func (f *Front) Close() error { return f.srv.Close() }

// ServerStats returns the CoAP server's transport counters.
func (f *Front) ServerStats() coap.ServerStats { return f.srv.Stats() }

// Checkpoint snapshots the gateway state plus the CoAP dedup cache.
func (f *Front) Checkpoint() *Checkpoint {
	cp := f.gw.ExportCheckpoint()
	cp.Dedup = f.srv.ExportDedup()
	return cp
}

// Restore loads a checkpoint into the gateway and seeds the dedup cache,
// so retransmissions of pre-crash requests replay their cached ACKs
// instead of re-ingesting their batches.
func (f *Front) Restore(cp *Checkpoint) error {
	if err := f.gw.RestoreCheckpoint(cp); err != nil {
		return err
	}
	f.srv.RestoreDedup(cp.Dedup)
	return nil
}

// handleBinary decodes and applies one binary batch through the pooled
// zero-alloc path. The kind byte is authoritative — a binary advance on
// /report behaves like one on /advance — because the payload, not the
// path, is what the CRC covers.
func (f *Front) handleBinary(payload []byte) *coap.Message {
	scratch := wire.GetEvents()
	b, err := wire.DecodeBatch(payload, *scratch)
	if err != nil {
		wire.PutEvents(scratch)
		f.malformed.Inc()
		return &coap.Message{Code: coap.CodeBadRequest, Payload: []byte(ReasonBadPayload)}
	}
	*scratch = b.Events
	var opErr error
	switch b.Kind {
	case wire.KindReport:
		opErr = f.gw.IngestBatch(b.Events)
	case wire.KindAdvance:
		opErr = f.gw.AdvanceTo(b.At)
	}
	wire.PutEvents(scratch)
	if opErr != nil {
		return &coap.Message{Code: coap.CodeBadRequest, Payload: []byte(ReasonRejected)}
	}
	return &coap.Message{Code: coap.CodeChanged}
}

func (f *Front) handle(req *coap.Message) *coap.Message {
	switch req.Path() {
	case "report":
		if req.Code != coap.CodePOST {
			return &coap.Message{Code: coap.CodeBadRequest, Payload: []byte(ReasonMethod)}
		}
		if wire.IsBinary(req.Payload) {
			return f.handleBinary(req.Payload)
		}
		scratch := wire.GetEvents()
		defer wire.PutEvents(scratch)
		evts, err := DecodeJSONReport(req.Payload, (*scratch)[:0])
		*scratch = evts
		if err != nil {
			f.malformed.Inc()
			return &coap.Message{Code: coap.CodeBadRequest, Payload: []byte(ReasonBadPayload)}
		}
		if err := f.gw.IngestBatch(evts); err != nil {
			return &coap.Message{Code: coap.CodeBadRequest, Payload: []byte(ReasonRejected)}
		}
		return &coap.Message{Code: coap.CodeChanged}
	case "advance":
		if wire.IsBinary(req.Payload) {
			return f.handleBinary(req.Payload)
		}
		var adv wireAdvance
		if err := json.Unmarshal(req.Payload, &adv); err != nil {
			f.malformed.Inc()
			return &coap.Message{Code: coap.CodeBadRequest, Payload: []byte(ReasonBadPayload)}
		}
		if err := f.gw.AdvanceTo(time.Duration(adv.AtMS) * time.Millisecond); err != nil {
			return &coap.Message{Code: coap.CodeBadRequest, Payload: []byte(ReasonRejected)}
		}
		return &coap.Message{Code: coap.CodeChanged}
	case "stats":
		data, err := json.Marshal(f.gw.Stats())
		if err != nil {
			return &coap.Message{Code: coap.CodeInternal}
		}
		return &coap.Message{Code: coap.CodeContent, Payload: data}
	case "liveness":
		data, err := json.Marshal(f.gw.Liveness())
		if err != nil {
			return &coap.Message{Code: coap.CodeInternal}
		}
		return &coap.Message{Code: coap.CodeContent, Payload: data}
	case "context":
		data, err := json.Marshal(f.gw.ContextInfo())
		if err != nil {
			return &coap.Message{Code: coap.CodeInternal}
		}
		return &coap.Message{Code: coap.CodeContent, Payload: data}
	default:
		return &coap.Message{Code: coap.CodeNotFound}
	}
}

// WireFormat selects the encoding an Agent puts on the wire.
type WireFormat uint8

const (
	// WireBinary is the internal/wire binary batch format (the default):
	// fixed-width records, CRC-framed, decoded on the gateway through the
	// pooled zero-alloc path. Binary keeps full nanosecond timestamps.
	WireBinary WireFormat = iota
	// WireJSON is the legacy JSON array encoding. Timestamps truncate to
	// milliseconds on the wire.
	WireJSON
)

// Agent is the device-side helper: it batches readings and posts them to a
// gateway front end.
type Agent struct {
	cli     *coap.Client
	pending []event.Event
	enc     []byte // reused encode buffer for binary payloads
	// BatchSize is how many readings are sent per POST (default 16).
	BatchSize int
	// Timeout bounds each exchange (default 5s).
	Timeout time.Duration
	// Format selects the wire encoding (default WireBinary). Set WireJSON
	// to exercise the legacy path or to talk to a pre-binary gateway.
	Format WireFormat
	// Home, when set, addresses a tenant behind a multi-home hub: requests
	// go to /report/{home}, /advance/{home}, /stats/{home} instead of the
	// bare single-gateway paths.
	Home string
	// Retries bounds how many times a timed-out exchange is reissued as a
	// fresh request, with exponential backoff + jitter between attempts —
	// the layer above the CON retransmission schedule, for outages that
	// outlast a whole ladder (gateway restart, tenant migration). Zero (the
	// default) keeps the single-exchange behaviour. Each reissue is a new
	// exchange (new Message ID), so the gateway's dedup cache does not
	// absorb it: enable retries only against idempotent resources or when
	// at-least-once reporting is acceptable.
	Retries int
	// RetryBackoff is the base delay before the first reissue (default
	// 250ms); it doubles per attempt, capped at 5s, with uniform jitter of
	// up to half the delay added so synchronized agents do not stampede a
	// recovering gateway.
	RetryBackoff time.Duration
}

// path renders a resource path, suffixed with the tenant segment when the
// agent reports into a multi-home hub.
func (a *Agent) path(base string) string {
	if a.Home == "" {
		return base
	}
	return base + "/" + a.Home
}

// NewAgent dials a gateway front end.
func NewAgent(addr string) (*Agent, error) {
	cli, err := coap.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Agent{cli: cli, BatchSize: 16, Timeout: 5 * time.Second}, nil
}

// NewAgentConn builds an agent over an existing connected datagram conn —
// e.g. a chaos-wrapped one — and takes ownership of it.
func NewAgentConn(conn net.Conn) *Agent {
	return &Agent{cli: coap.NewClient(conn), BatchSize: 16, Timeout: 5 * time.Second}
}

// Client exposes the underlying CoAP client so callers can tune its
// retransmission parameters.
func (a *Agent) Client() *coap.Client { return a.cli }

// Close flushes pending readings and releases the socket.
func (a *Agent) Close() error {
	flushErr := a.Flush()
	closeErr := a.cli.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Report queues one reading, flushing when the batch is full.
func (a *Agent) Report(e event.Event) error {
	a.pending = append(a.pending, e)
	if len(a.pending) >= a.BatchSize {
		return a.Flush()
	}
	return nil
}

// Flush posts all queued readings.
func (a *Agent) Flush() error {
	if len(a.pending) == 0 {
		return nil
	}
	var payload []byte
	if a.Format == WireJSON {
		batch := make([]WireEvent, len(a.pending))
		for i, e := range a.pending {
			batch[i] = WireEvent{AtMS: e.At.Milliseconds(), Device: int(e.Device), Value: e.Value}
		}
		var err error
		payload, err = json.Marshal(batch)
		if err != nil {
			return err
		}
	} else {
		a.enc = wire.AppendReport(a.enc[:0], a.pending)
		payload = a.enc
	}
	req := &coap.Message{Code: coap.CodePOST, Payload: payload}
	req.SetPath(a.path("report"))
	resp, err := a.do(req)
	if err != nil {
		return err
	}
	if resp.Code != coap.CodeChanged {
		return fmt.Errorf("gateway: report rejected: %s %s", resp.Code, resp.Payload)
	}
	a.pending = a.pending[:0]
	return nil
}

// Advance pushes the gateway's stream clock to t.
func (a *Agent) Advance(t time.Duration) error {
	if err := a.Flush(); err != nil {
		return err
	}
	var payload []byte
	if a.Format == WireJSON {
		var err error
		payload, err = json.Marshal(wireAdvance{AtMS: t.Milliseconds()})
		if err != nil {
			return err
		}
	} else {
		a.enc = wire.AppendAdvance(a.enc[:0], t)
		payload = a.enc
	}
	req := &coap.Message{Code: coap.CodePOST, Payload: payload}
	req.SetPath(a.path("advance"))
	resp, err := a.do(req)
	if err != nil {
		return err
	}
	if resp.Code != coap.CodeChanged {
		return fmt.Errorf("gateway: advance rejected: %s %s", resp.Code, resp.Payload)
	}
	return nil
}

// Stats fetches the gateway counters.
func (a *Agent) Stats() (Stats, error) {
	req := &coap.Message{Code: coap.CodeGET}
	req.SetPath(a.path("stats"))
	resp, err := a.do(req)
	if err != nil {
		return Stats{}, err
	}
	var s Stats
	if err := json.Unmarshal(resp.Payload, &s); err != nil {
		return Stats{}, fmt.Errorf("gateway: bad stats payload: %w", err)
	}
	return s, nil
}

// maxRetryBackoff caps the exponential reissue delay.
const maxRetryBackoff = 5 * time.Second

func (a *Agent) do(req *coap.Message) (*coap.Message, error) {
	timeout := a.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		resp, err := a.cli.Do(ctx, req)
		cancel()
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if attempt >= a.Retries {
			return nil, lastErr
		}
		base := a.RetryBackoff
		if base <= 0 {
			base = 250 * time.Millisecond
		}
		delay := base << attempt
		if delay > maxRetryBackoff || delay <= 0 {
			delay = maxRetryBackoff
		}
		// Full-jitter on the top half: uniform in [delay/2, delay).
		delay = delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		time.Sleep(delay)
	}
}
