package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/hub"
	"repro/internal/wire"
)

// hubShards is the hub's worker pool size: one shard per core of the
// 2-core machine the workloads are sized for.
const hubShards = 2

// Alert channel sizes. A dropped alert would fail the oracle, so neither
// may overflow: each gateway's forwarder drains its channel continuously
// and a home raises at most one alert per window, so a tenant channel holds
// far more than a round can raise; the hub channel holds every alert of a
// pass (about 11k on hub-faulty) in case the single consumer falls behind.
const (
	tenantAlertBuffer = 1 << 10
	hubAlertBuffer    = 1 << 15
)

// hubSystem is one hub with every home registered on the trained context,
// no WAL, fed by one producer goroutine.
type hubSystem struct {
	in *inputs
	h  *hub.Hub
	// alertLatency selects which latency the pass reports: from the call
	// carrying the event that closes an alert's window to the alert's
	// arrival, or else from each batch's call to the end of its round.
	alertLatency bool
}

func buildHub(in *inputs, cctx *core.Context, alertLatency bool) (*hubSystem, error) {
	h, err := hub.New(hub.WithShards(hubShards), hub.WithAlertBuffer(hubAlertBuffer))
	if err != nil {
		return nil, err
	}
	for i := range in.homes {
		if _, err := h.Register(in.homes[i].name, cctx, gatewayOptions()...); err != nil {
			h.Close()
			return nil, err
		}
	}
	return &hubSystem{in: in, h: h, alertLatency: alertLatency}, nil
}

func (s *hubSystem) close() error { return s.h.Close() }

// arrival is one alert as the consumer received it.
type arrival struct {
	home string
	at   time.Duration
	rec  alertRec
}

// alertCollector consumes an alert channel on its own goroutine, stamping
// each alert with its arrival time since base.
type alertCollector struct {
	n    atomic.Int64
	got  []arrival
	stop chan struct{}
	done chan struct{}
}

func collectAlerts(ch <-chan hub.TenantAlert, base time.Time) *alertCollector {
	c := &alertCollector{stop: make(chan struct{}), done: make(chan struct{})}
	take := func(a hub.TenantAlert) {
		c.got = append(c.got, arrival{home: a.Home, at: time.Since(base), rec: recOf(a.Alert)})
		c.n.Add(1)
	}
	go func() {
		defer close(c.done)
		for {
			select {
			case a := <-ch:
				take(a)
			case <-c.stop:
				return
			}
		}
	}()
	return c
}

// wait blocks until want alerts have arrived.
func (c *alertCollector) wait(want int64) error {
	deadline := time.Now().Add(30 * time.Second)
	for c.n.Load() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d alerts delivered, %d raised", c.n.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// finish stops the consumer and returns what it received.
func (c *alertCollector) finish() []arrival {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
	return c.got
}

// stream runs one pass as a closed loop of rounds: one producer sends the
// next batch of every home through IngestBatch, then waits in DrainAll
// until the round is applied, so each home has one batch in flight.
func (s *hubSystem) stream(tr *tracer) (*passResult, error) {
	in := s.in
	res := &passResult{outputs: make([]homeOutput, len(in.homes))}
	calls := make([][]time.Duration, len(in.homes)) // IngestBatch call times per home and batch
	advAt := make([]time.Duration, len(in.homes))
	for i := range in.homes {
		calls[i] = make([]time.Duration, len(in.homes[i].batches))
	}
	start := time.Now()
	alerts := collectAlerts(s.h.Alerts(), start)
	defer alerts.finish()

	scratch := make([]event.Event, 0, batchSize)
	var req int64
	round := make([]time.Duration, 0, len(in.homes))
	for k := 0; ; k++ {
		round = round[:0]
		for i := range in.homes {
			h := &in.homes[i]
			if k >= len(h.batches) {
				continue
			}
			req++
			root := tr.start("batch", "bench", req, nil)
			sp := tr.start("wire.DecodeBatch", "wire", req, root)
			b, err := wire.DecodeBatch(h.batches[k], scratch[:0])
			tr.finish(sp)
			if err != nil {
				return nil, err
			}
			scratch = b.Events
			calls[i][k] = time.Since(start)
			sp = tr.start("hub.IngestBatch", "hub", req, root)
			err = s.h.IngestBatch(h.name, b.Events)
			tr.finish(sp)
			tr.finish(root)
			res.attempted++
			if err != nil {
				res.failed++
				continue
			}
			round = append(round, calls[i][k])
		}
		if len(round) == 0 {
			break
		}
		sp := tr.start("hub.DrainAll", "hub", 0, nil)
		err := s.h.DrainAll()
		tr.finish(sp)
		if err != nil {
			return nil, err
		}
		if !s.alertLatency {
			done := time.Since(start)
			for _, c := range round {
				res.lat.add(done - c)
			}
		}
	}
	for i := range in.homes {
		h := &in.homes[i]
		b, err := wire.DecodeBatch(h.advance, scratch[:0])
		if err != nil {
			return nil, err
		}
		advAt[i] = time.Since(start)
		res.attempted++
		if err := s.h.Advance(h.name, b.At); err != nil {
			res.failed++
		}
	}
	if err := s.h.DrainAll(); err != nil {
		return nil, err
	}
	res.wall = time.Since(start)
	res.events = in.events

	var want int64
	for i := range in.homes {
		tn, ok := s.h.Tenant(in.homes[i].name)
		if !ok {
			return nil, fmt.Errorf("hub: tenant %s vanished", in.homes[i].name)
		}
		res.outputs[i].Stats = tn.Stats()
		want += res.outputs[i].Stats.Alerts
	}
	if err := alerts.wait(want); err != nil {
		return nil, fmt.Errorf("hub: %w", err)
	}

	index := make(map[string]int, len(in.homes))
	for i := range in.homes {
		index[in.homes[i].name] = i
	}
	for _, a := range alerts.finish() {
		i := index[a.home]
		res.outputs[i].Alerts = append(res.outputs[i].Alerts, a.rec)
		if s.alertLatency {
			res.lat.add(a.at - closingCall(&in.homes[i], a.rec.key.Reported, calls[i], advAt[i]))
		}
	}
	for _, st := range s.h.ShardStats() {
		res.shardOps = append(res.shardOps, st.Ops)
		res.shed += st.Shed
	}
	return res, nil
}

// closingCall returns when the ingest call carrying the event that closes
// the window reported at t was made: the first event at or past the
// window's end closes it, or the final advance if no event does.
func closingCall(h *homeInput, reported time.Duration, calls []time.Duration, advAt time.Duration) time.Duration {
	end := reported + time.Minute
	idx := sort.Search(len(h.events), func(j int) bool { return h.events[j].At >= end })
	if idx == len(h.events) {
		return advAt
	}
	return calls[idx/batchSize]
}
