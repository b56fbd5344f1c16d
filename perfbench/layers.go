package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/coap"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/window"
	"repro/internal/wire"
)

// isolatedEvents bounds how many events the isolated replays feed through
// the WAL, the slowest layer alone, so the traced run stays within a few
// seconds on every workload.
const isolatedEvents = 400_000

// traced runs the workload untraced and then traced, for half the time
// each, replays the same inputs through each inner layer's public
// functions alone, and returns the per-layer metrics.
func (r *runner) traced(cfg config) (*result, error) {
	plain, err := r.passes(cfg.seconds/2, nil)
	if err != nil {
		return r.fail(err)
	}
	tr := newTracer()
	traced, err := r.passes(cfg.seconds/2, tr)
	if err != nil {
		return r.fail(err)
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", r.wl.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}

	m := map[string]float64{}
	var attempted, failed int64
	rate := func(ps []*passResult) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, float64(p.events)/p.wall.Seconds())
		}
		return medianOf(xs)
	}
	untracedRate, tracedRate := rate(plain), rate(traced)
	m["trace.events_per_s"] = tracedRate
	m["trace.untraced_events_per_s"] = untracedRate
	m["trace.overhead_ratio"] = 1 - tracedRate/untracedRate

	// Counters from the untraced passes.
	var shed, retries, dropped int64
	var skews, proxiedRatio []float64
	var local, proxied latencies
	for _, p := range plain {
		attempted += p.attempted
		failed += p.failed
		shed += p.shed
		retries += p.retries
		for _, o := range p.outputs {
			dropped += o.Stats.AlertsDropped
		}
		if len(p.shardOps) > 0 {
			var sum, hi int64
			for _, n := range p.shardOps {
				sum += n
				hi = max(hi, n)
			}
			skews = append(skews, float64(hi)/(float64(sum)/float64(len(p.shardOps))))
		}
		local = append(local, p.local...)
		proxied = append(proxied, p.proxied...)
		if n := len(p.local) + len(p.proxied); n > 0 {
			proxiedRatio = append(proxiedRatio, float64(len(p.proxied))/float64(n))
		}
	}
	m["hub.shard_ops_skew"] = medianOf(skews)
	m["hub.shed_ops"] = float64(shed)
	m["gateway.alerts_dropped"] = float64(dropped)
	switch r.wl.name {
	case "coap-durable":
		m["coap.retransmits"] = float64(retries)
	case "cluster-durable":
		m["cluster.retries"] = float64(retries)
	}
	m["cluster.send_local_us_p50"] = 1000 * local.quantile(0.5)
	m["cluster.send_proxied_us_p50"] = 1000 * proxied.quantile(0.5)
	m["cluster.send_proxied_us_p99"] = 1000 * proxied.quantile(0.99)
	m["cluster.proxied_ratio"] = medianOf(proxiedRatio)

	// The workload's latency tail, from the untraced passes: median over
	// passes of each pass's percentile, and the samples behind them.
	var p90, p99 []float64
	var samples int
	for _, p := range plain {
		p90 = append(p90, p.lat.quantile(0.90))
		p99 = append(p99, p.lat.quantile(0.99))
		samples += len(p.lat)
	}
	m["e2e.latency_p90_ms"] = medianOf(p90)
	m["e2e.latency_p99_ms"] = medianOf(p99)
	m["e2e.latency_samples"] = float64(samples)

	// Spans of the traced passes.
	wait := tr.agg("hub.IngestBatch").durs
	m["hub.enqueue_wait_us_p50"] = 1000 * wait.quantile(0.5)
	m["hub.enqueue_wait_us_p99"] = 1000 * wait.quantile(0.99)

	iso, err := r.isolated()
	if err != nil {
		return nil, err
	}
	for k, v := range iso.metrics {
		m[k] = v
	}
	if r.wl.name == "coap-durable" {
		var acks latencies
		for _, p := range plain {
			acks = append(acks, p.lat...)
		}
		m["coap.roundtrip_us_p50"] = 1000*acks.quantile(0.5) - m["gateway.durable_ingest_us_p50"]
		var rec []float64
		for _, p := range plain {
			rec = append(rec, p.recovery.Seconds())
		}
		m["wal.recovery_s"] = medianOf(rec)
	}
	if r.wl.name == "cluster-durable" {
		d, err := r.applyDrain()
		if err != nil {
			return r.fail(err)
		}
		m["cluster.apply_drain_us_p50"] = 1000 * d.quantile(0.5)
	}

	m["trace.residual_ratio"] = r.reconcile(tr, traced, iso)

	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, name := range perLayerNames {
		res.Metrics[name] = metric{Value: m[name], Unit: unitOf(name)}
	}
	return res, nil
}

// perLayerNames lists every per-layer metric the traced run prints. A
// metric of a layer the workload does not use reads 0.
var perLayerNames = []string{
	"e2e.latency_p90_ms", "e2e.latency_p99_ms", "e2e.latency_samples",
	"wire.decode_ns_per_batch", "wire.decode_allocs_per_batch",
	"hub.enqueue_wait_us_p50", "hub.enqueue_wait_us_p99", "hub.shard_ops_skew", "hub.shed_ops",
	"window.add_ns_per_event", "window.allocs_per_window",
	"core.train_s", "core.scan_ns_per_clean_window", "core.checks_ns_per_window", "core.exact_hit_ratio",
	"core.clean_allocs_per_window", "core.identify_ns_per_identifying_window",
	"core.identify_allocs_per_identifying_window", "core.alerts_per_episode", "core.false_alarms",
	"gateway.ingest_batch_us_p50", "gateway.ingest_allocs_per_batch", "gateway.alert_deliver_us_p50",
	"gateway.alerts_dropped", "gateway.durable_ingest_us_p50", "gateway.durable_ingest_us_p99",
	"wal.append_batch_us_p50", "wal.append_batch_us_p99", "wal.fsyncs_per_kevent", "wal.bytes_per_event",
	"wal.replay_records_per_s", "wal.recover_apply_us_per_krecord", "wal.recovery_s",
	"coap.marshal_ns", "coap.unmarshal_ns", "coap.roundtrip_us_p50", "coap.retransmits",
	"cluster.send_local_us_p50", "cluster.send_proxied_us_p50", "cluster.send_proxied_us_p99",
	"cluster.proxied_ratio", "cluster.apply_drain_us_p50", "cluster.retries",
	"trace.events_per_s", "trace.untraced_events_per_s", "trace.overhead_ratio", "trace.residual_ratio",
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "events_per_s"):
		return "events/s"
	case strings.HasSuffix(name, "records_per_s"):
		return "records/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_skew"):
		return "ratio"
	case strings.Contains(name, "bytes"):
		return "bytes"
	}
	return "count"
}

// isoResult is what the isolated layer replays measured: the per-layer
// metrics and, per event, each inner layer's cost for the reconciliation.
type isoResult struct {
	metrics  map[string]float64
	perEvent map[string]float64 // ns per event, by layer, as measured alone
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// isolated feeds the workload's inputs to each inner layer's public
// functions alone: DWB1 decode, the window builder, the detector, a solo
// gateway without and with a WAL, the WAL itself and the CoAP codec.
func (r *runner) isolated() (*isoResult, error) {
	in := r.in
	out := &isoResult{metrics: map[string]float64{}, perEvent: map[string]float64{}}
	m := out.metrics

	// wire: decode every batch.
	var batches int
	scratch := make([]event.Event, 0, batchSize)
	a0, t0 := mallocs(), time.Now()
	for i := range in.homes {
		for _, b := range in.homes[i].batches {
			dec, err := wire.DecodeBatch(b, scratch[:0])
			if err != nil {
				return nil, err
			}
			scratch = dec.Events
			batches++
		}
	}
	d, allocs := time.Since(t0), mallocs()-a0
	m["wire.decode_ns_per_batch"] = float64(d.Nanoseconds()) / float64(batches)
	m["wire.decode_allocs_per_batch"] = float64(allocs) / float64(batches)
	out.perEvent["wire"] = float64(d.Nanoseconds()) / float64(in.events)

	// core.train_s: training alone, median of five.
	var trains []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := train(in); err != nil {
			return nil, err
		}
		trains = append(trains, time.Since(t0).Seconds())
	}
	m["core.train_s"] = medianOf(trains)

	// window: every event through a builder, then the closing advance.
	var windows int
	var obs [][]*window.Observation // per home, for the detector replay
	var addTime time.Duration
	allocs = 0
	for i := range in.homes {
		h := &in.homes[i]
		b := window.NewBuilder(in.layout, time.Minute)
		a0, t0 := mallocs(), time.Now()
		for _, e := range h.events {
			done, err := b.Add(e)
			if err != nil {
				return nil, err
			}
			windows += len(done)
			for _, o := range done {
				b.Recycle(o)
			}
		}
		done, err := b.AdvanceTo(h.end)
		if err != nil {
			return nil, err
		}
		addTime += time.Since(t0)
		allocs += mallocs() - a0
		windows += len(done)
	}
	m["window.add_ns_per_event"] = float64(addTime.Nanoseconds()) / float64(in.events)
	m["window.allocs_per_window"] = float64(allocs) / float64(windows)
	out.perEvent["window"] = float64(addTime.Nanoseconds()) / float64(in.events)
	for i := range in.homes {
		h := &in.homes[i]
		o, err := window.FromEvents(in.layout, time.Minute, h.events, h.end)
		if err != nil {
			return nil, err
		}
		obs = append(obs, o)
	}

	// core: every window through a fresh detector per home, timed per
	// window and split by whether it ran inside an identification episode.
	var (
		clean, ident             time.Duration
		nClean, nIdent, hits     int
		scan, checks             time.Duration
		cleanAllocs, identAllocs uint64
		alerts, episodes         int
		nWindows                 int
	)
	for _, hw := range obs {
		det, err := core.New(r.cctx, core.WithConfig(core.Config{}))
		if err != nil {
			return nil, err
		}
		identifying := false
		a0 := mallocs()
		for _, o := range hw {
			t0 := time.Now()
			res, err := det.Process(o)
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			nWindows++
			if res.MainGroup != core.NoGroup {
				hits++
			}
			if res.Detected {
				episodes++
			}
			alerts += len(res.Alerts)
			if res.Identifying != identifying {
				// Attribute the allocations since the last switch to the
				// kind of windows that made them.
				a := mallocs()
				if identifying {
					identAllocs += a - a0
				} else {
					cleanAllocs += a - a0
				}
				a0, identifying = mallocs(), res.Identifying
			}
			if res.Identifying {
				ident += d
				nIdent++
				continue
			}
			clean += d
			nClean++
			scan += res.Timing.Correlation
			checks += res.Timing.Transition + res.Timing.Identify
		}
		if a := mallocs(); identifying {
			identAllocs += a - a0
		} else {
			cleanAllocs += a - a0
		}
	}
	perWindow := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	m["core.scan_ns_per_clean_window"] = perWindow(scan, nClean)
	m["core.checks_ns_per_window"] = perWindow(checks, nClean)
	m["core.exact_hit_ratio"] = float64(hits) / float64(nWindows)
	if nClean > 0 {
		m["core.clean_allocs_per_window"] = float64(cleanAllocs) / float64(nClean)
	}
	m["core.identify_ns_per_identifying_window"] = perWindow(ident, nIdent)
	if nIdent > 0 {
		m["core.identify_allocs_per_identifying_window"] = float64(identAllocs) / float64(nIdent)
	}
	if episodes > 0 {
		m["core.alerts_per_episode"] = float64(alerts) / float64(episodes)
	}
	_, _, falseAlarms := score(r.ref, in)
	m["core.false_alarms"] = float64(falseAlarms)
	out.perEvent["core"] = float64((clean + ident).Nanoseconds()) / float64(in.events)

	// gateway, solo and without a WAL: every batch through IngestBatch,
	// alerts received by the caller right after the call returns.
	var ingest, deliver latencies
	var ingestTotal time.Duration
	allocs = 0
	for i := range in.homes {
		h := &in.homes[i]
		gw, err := gateway.New(r.cctx, gatewayOptions()...)
		if err != nil {
			return nil, err
		}
		a0 := mallocs()
		for k := range h.batches {
			t0 := time.Now()
			if err := gw.IngestBatch(h.batchEvents(k)); err != nil {
				return nil, err
			}
			ret := time.Now()
			ingest.add(ret.Sub(t0))
			ingestTotal += ret.Sub(t0)
			for len(gw.Alerts()) > 0 {
				<-gw.Alerts()
				deliver.add(time.Since(ret))
			}
		}
		allocs += mallocs() - a0
	}
	m["gateway.ingest_batch_us_p50"] = 1000 * ingest.quantile(0.5)
	m["gateway.ingest_allocs_per_batch"] = float64(allocs) / float64(len(ingest))
	m["gateway.alert_deliver_us_p50"] = 1000 * deliver.quantile(0.5)
	out.perEvent["gateway"] = float64(ingestTotal.Nanoseconds())/float64(in.events) -
		out.perEvent["window"] - out.perEvent["core"]

	if err := r.isolatedWAL(out); err != nil {
		return nil, err
	}

	// coap: the message codec over every batch as a report payload.
	var marshal, unmarshal time.Duration
	for i := range in.homes {
		for k, b := range in.homes[i].batches {
			req := &coap.Message{Type: coap.Confirmable, Code: coap.CodePOST, MessageID: uint16(k),
				Token: []byte{1, 2, 3, 4}, Payload: b}
			req.SetPath("report")
			t0 := time.Now()
			data, err := req.Marshal()
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			if _, err := coap.Unmarshal(data); err != nil {
				return nil, err
			}
			marshal += t1.Sub(t0)
			unmarshal += time.Since(t1)
		}
	}
	m["coap.marshal_ns"] = float64(marshal.Nanoseconds()) / float64(batches)
	m["coap.unmarshal_ns"] = float64(unmarshal.Nanoseconds()) / float64(batches)
	return out, nil
}

// isolatedWAL replays up to isolatedEvents events through a solo gateway
// with a WAL at the durable workloads' policy (no transport), and through a
// bare log at fsync=batch, which prices fsync; then it reads the bare log
// back alone and a gateway's log through a cold RecoverWAL.
func (r *runner) isolatedWAL(out *isoResult) error {
	in := r.in
	m := out.metrics
	dir := filepath.Join(r.dir, "isolated-wal")
	defer os.RemoveAll(dir)

	var durable, appends latencies
	var events int64
	var durableTotal, appendTotal time.Duration
	reg := telemetry.NewRegistry()
	bare, err := wal.Open(filepath.Join(dir, "bare"), wal.Options{Sync: wal.SyncBatch, Telemetry: reg})
	if err != nil {
		return err
	}
	// Pre-grown like the gateway's own buffer, so the frames stay valid.
	buf := make([]byte, 0, batchSize*wal.RecordSize)
	var frames [][]byte
	for i := range in.homes {
		if events >= isolatedEvents {
			break
		}
		h := &in.homes[i]
		// Stream time restarts per home, so each home gets its own gateway
		// and log.
		hl, err := wal.Open(filepath.Join(dir, "gw-"+h.name), wal.Options{Sync: walSync})
		if err != nil {
			return err
		}
		gw, err := gateway.New(r.cctx, gatewayOptions(gateway.WithWAL(hl))...)
		if err != nil {
			hl.Close()
			return err
		}
		for k := range h.batches {
			evts := h.batchEvents(k)
			t0 := time.Now()
			if err := gw.IngestBatch(evts); err != nil {
				hl.Close()
				return err
			}
			d := time.Since(t0)
			durable.add(d)
			durableTotal += d

			buf, frames = buf[:0], frames[:0]
			for _, e := range evts {
				off := len(buf)
				buf = wal.IngestRecord(e).AppendTo(buf)
				frames = append(frames, buf[off:])
			}
			t0 = time.Now()
			if _, err := bare.AppendBatch(frames); err != nil {
				hl.Close()
				return err
			}
			d = time.Since(t0)
			appends.add(d)
			appendTotal += d
			events += int64(len(evts))
		}
		if err := hl.Close(); err != nil {
			return err
		}
	}
	if err := bare.Close(); err != nil {
		return err
	}
	m["gateway.durable_ingest_us_p50"] = 1000 * durable.quantile(0.5)
	m["gateway.durable_ingest_us_p99"] = 1000 * durable.quantile(0.99)
	m["wal.append_batch_us_p50"] = 1000 * appends.quantile(0.5)
	m["wal.append_batch_us_p99"] = 1000 * appends.quantile(0.99)
	m["wal.fsyncs_per_kevent"] = 1000 * float64(reg.Counter("dice_wal_syncs_total", "").Value()) / float64(events)
	m["wal.bytes_per_event"] = float64(reg.Counter("dice_wal_append_bytes_total", "").Value()) / float64(events)
	out.perEvent["wal-fsync"] = float64(appendTotal.Nanoseconds()) / float64(events)
	out.perEvent["gateway+wal"] = float64(durableTotal.Nanoseconds()) / float64(events)

	// Read back: the bare log alone, then the first home's log through a
	// cold RecoverWAL, whose apply cost is its time minus the replay's.
	t0 := time.Now()
	rl, err := wal.Open(filepath.Join(dir, "bare"), wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return err
	}
	var records int64
	err = rl.Replay(0, func(uint64, []byte) error { records++; return nil })
	replay := time.Since(t0)
	rl.Close()
	if err != nil {
		return err
	}
	m["wal.replay_records_per_s"] = float64(records) / replay.Seconds()

	home := filepath.Join(dir, "gw-"+in.homes[0].name)
	t0 = time.Now()
	rl, err = wal.Open(home, wal.Options{Sync: walSync})
	if err != nil {
		return err
	}
	var homeRecords int64
	err = rl.Replay(0, func(uint64, []byte) error { homeRecords++; return nil })
	homeReplay := time.Since(t0)
	rl.Close()
	if err != nil {
		return err
	}
	t0 = time.Now()
	rl, err = wal.Open(home, wal.Options{Sync: walSync})
	if err != nil {
		return err
	}
	defer rl.Close()
	gw, err := gateway.New(r.cctx, gatewayOptions(gateway.WithWAL(rl))...)
	if err != nil {
		return err
	}
	if err := gw.RecoverWAL(); err != nil {
		return err
	}
	recovery := time.Since(t0)
	m["wal.recover_apply_us_per_krecord"] = float64((recovery - homeReplay).Microseconds()) / (float64(homeRecords) / 1000)
	return nil
}

// applyDrain times the owner's IngestBatch + Drain called directly, the
// work behind every cluster 200: a fresh cluster materializes each home
// with one Send, then the rest of the home's stream goes straight to the
// owner node's hub. The final stats must match the reference.
func (r *runner) applyDrain() (latencies, error) {
	in := r.in
	sys, err := buildCluster(in, r.cctx, filepath.Join(r.dir, "apply-drain"))
	if err != nil {
		return nil, err
	}
	defer sys.close()
	var lat latencies
	for i := range in.homes {
		h := &in.homes[i]
		if err := sys.client.Send(context.Background(), h.name, h.batches[0]); err != nil {
			return nil, err
		}
		owner := sys.owner(h.name)
		for k := 1; k < len(h.batches); k++ {
			t0 := time.Now()
			if err := owner.Hub().IngestBatch(h.name, h.batchEvents(k)); err != nil {
				return nil, err
			}
			if err := owner.Hub().Drain(h.name); err != nil {
				return nil, err
			}
			lat.add(time.Since(t0))
		}
		if err := owner.Hub().Advance(h.name, h.end); err != nil {
			return nil, err
		}
		if err := owner.Hub().Drain(h.name); err != nil {
			return nil, err
		}
		tn, ok := owner.Hub().Tenant(h.name)
		if !ok {
			return nil, fmt.Errorf("cluster: owner lost %s", h.name)
		}
		if got := tn.Stats(); got != r.ref[i].Stats {
			return nil, &mismatch{fmt.Errorf("oracle: %s direct-apply stats %+v, want %+v", h.name, got, r.ref[i].Stats)}
		}
	}
	return lat, nil
}

// reconcile prints how the traced passes' wall time splits into layer
// self times, and the inner layers' costs from the isolated replays, and
// returns the residual as a share of the end-to-end time.
func (r *runner) reconcile(tr *tracer, traced []*passResult, iso *isoResult) float64 {
	var wall time.Duration
	var events int64
	for _, p := range traced {
		wall += p.wall * time.Duration(r.wl.producers)
		events += p.events
	}
	self := tr.selfByLayer()
	layers := make([]string, 0, len(self))
	var sum time.Duration
	for l, d := range self {
		layers = append(layers, l)
		// Cold recovery runs after the timed stream, outside the wall time.
		if l != "gateway" || r.wl.name != "coap-durable" {
			sum += d
		}
	}
	sort.Strings(layers)
	perEvent := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(events) }
	var b strings.Builder
	fmt.Fprintf(&b, "reconcile %s: end-to-end %.1f ns/event over %d traced passes; span self ns/event:",
		r.wl.name, perEvent(wall), len(traced))
	for _, l := range layers {
		fmt.Fprintf(&b, " %s=%.1f", l, perEvent(self[l]))
	}
	residual := wall - sum
	fmt.Fprintf(&b, "; sum=%.1f residual=%.1f (%.1f%%)", perEvent(sum), perEvent(residual),
		100*float64(residual)/float64(wall))
	fmt.Println(b.String())

	inner := make([]string, 0, len(iso.perEvent))
	for l := range iso.perEvent {
		inner = append(inner, l)
	}
	sort.Strings(inner)
	b.Reset()
	fmt.Fprintf(&b, "reconcile %s: isolated inner layers, ns/event:", r.wl.name)
	for _, l := range inner {
		fmt.Fprintf(&b, " %s=%.1f", l, iso.perEvent[l])
	}
	b.WriteString(" (gateway is its IngestBatch minus window and core; the hub's shard workers and the CoAP and HTTP servers run these inside the spans above)")
	fmt.Println(b.String())
	return float64(residual) / float64(wall)
}
