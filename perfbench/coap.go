package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/wal"
)

// countingConn counts datagrams written, so retransmissions show as
// writes beyond one per exchange.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// coapSystem is the paper's deployment: one solo gateway with a WAL, served
// over CoAP on loopback and fed by one device agent. The WAL writes every
// batch but does not fsync (see walSync).
type coapSystem struct {
	in    *inputs
	cctx  *core.Context
	dir   string
	log   *wal.Log
	gw    *gateway.Gateway
	front *gateway.Front
	conn  *countingConn
	agent *gateway.Agent
}

// walSync is the fsync policy of the durable workloads' WALs. On the shared
// virtual machine the benchmark was built on, fsync latency moved by a
// factor of two between runs minutes apart, so a workload timed through
// fsync could not repeat within any bound; the WAL's write path is timed
// end to end, and the isolated per-layer run prices fsync=batch alone.
const walSync = wal.SyncNever

func gatewayOptions(extra ...gateway.Option) []gateway.Option {
	return append([]gateway.Option{gateway.WithConfig(core.Config{}), gateway.WithAlertBuffer(tenantAlertBuffer)}, extra...)
}

func buildCoAP(in *inputs, cctx *core.Context, dir string) (*coapSystem, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s := &coapSystem{in: in, cctx: cctx, dir: dir}
	var err error
	if s.log, err = wal.Open(dir, wal.Options{Sync: walSync}); err != nil {
		return nil, err
	}
	if s.gw, err = gateway.New(cctx, gatewayOptions(gateway.WithWAL(s.log))...); err != nil {
		s.close()
		return nil, err
	}
	if s.front, err = gateway.ServeCoAP(s.gw, "127.0.0.1:0"); err != nil {
		s.close()
		return nil, err
	}
	raddr, err := net.ResolveUDPAddr("udp", s.front.Addr())
	if err != nil {
		s.close()
		return nil, err
	}
	udp, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		s.close()
		return nil, err
	}
	s.conn = &countingConn{Conn: udp}
	s.agent = gateway.NewAgentConn(s.conn)
	// The benchmark flushes every batchSize readings itself, so that each
	// Flush call is one timed batch.
	s.agent.BatchSize = 1 << 30
	return s, nil
}

func (s *coapSystem) close() error {
	var errs []error
	if s.agent != nil {
		errs = append(errs, s.agent.Close())
		s.agent = nil
	}
	if s.front != nil {
		errs = append(errs, s.front.Close())
		s.front = nil
	}
	if s.log != nil {
		errs = append(errs, s.log.Close())
		s.log = nil
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// stream sends the home's readings batch by batch, each Flush acked with
// 2.04 once the gateway has logged and applied it, then restarts cold:
// a fresh gateway recovers the whole log and must land on the live stats.
func (s *coapSystem) stream(tr *tracer) (*passResult, error) {
	h := &s.in.homes[0]
	res := &passResult{outputs: make([]homeOutput, 1)}
	start := time.Now()
	for k := range h.batches {
		for _, e := range h.batchEvents(k) {
			if err := s.agent.Report(e); err != nil {
				return nil, err
			}
		}
		sp := tr.start("coap.Agent.Flush", "coap", int64(k+1), nil)
		t0 := time.Now()
		err := s.agent.Flush()
		d := time.Since(t0)
		tr.finish(sp)
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		res.lat.add(d)
	}
	res.attempted++
	if err := s.agent.Advance(h.end); err != nil {
		res.failed++
	}
	res.wall = time.Since(start)
	res.events = s.in.events
	res.retries = s.conn.writes.Load() - res.attempted

	live := s.gw.Stats()
	res.outputs[0].Stats = live
	for len(s.gw.Alerts()) > 0 {
		res.outputs[0].Alerts = append(res.outputs[0].Alerts, recOf(<-s.gw.Alerts()))
	}
	if err := s.agent.Close(); err != nil {
		return nil, err
	}
	s.agent = nil
	if err := s.front.Close(); err != nil {
		return nil, err
	}
	s.front = nil
	if err := s.log.Close(); err != nil {
		return nil, err
	}
	s.log = nil

	// Cold restart.
	sp := tr.start("gateway.RecoverWAL", "gateway", 0, nil)
	t0 := time.Now()
	w, err := wal.Open(s.dir, wal.Options{Sync: walSync})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	g, err := gateway.New(s.cctx, gatewayOptions(gateway.WithWAL(w))...)
	if err != nil {
		return nil, err
	}
	if err := g.RecoverWAL(); err != nil {
		return nil, err
	}
	res.recovery = time.Since(t0)
	tr.finish(sp)
	if got := g.Stats(); got != live {
		return nil, fmt.Errorf("coap: recovered stats %+v, live %+v", got, live)
	}
	return res, nil
}
