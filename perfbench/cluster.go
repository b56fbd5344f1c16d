package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/hub"
)

// clusterNodes is the cluster size and clusterClients the number of
// client goroutines, one per core.
const (
	clusterNodes   = 2
	clusterClients = 2
)

// countingTransport counts HTTP requests, so client retries show as
// requests beyond one per Send.
type countingTransport struct {
	rt       http.RoundTripper
	requests atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	return c.rt.RoundTrip(r)
}

// clusterSystem is two in-process nodes sharing one checkpoint and WAL
// directory, with homes placed by rendezvous hashing; clients post every
// batch to the first node, which applies it or proxies it to the owner.
type clusterSystem struct {
	in     *inputs
	dir    string
	nodes  []*cluster.Node
	ids    []string
	client *cluster.Client
	count  *countingTransport
}

func buildCluster(in *inputs, cctx *core.Context, dir string) (*clusterSystem, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	names := make([]string, len(in.homes))
	for i := range in.homes {
		names[i] = in.homes[i].name
	}
	resolve := func(string) (*core.Context, []gateway.Option, error) { return cctx, gatewayOptions(), nil }
	s := &clusterSystem{in: in, dir: dir}
	for i := 0; i < clusterNodes; i++ {
		id := fmt.Sprintf("n%d", i)
		n, err := cluster.New(id,
			cluster.WithCatalog(names, resolve),
			cluster.WithHubOptions(hub.WithShards(hubShards), hub.WithCheckpointDir(dir),
				hub.WithWALDir(dir), hub.WithWALSync(walSync), hub.WithAlertBuffer(hubAlertBuffer)))
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		s.ids = append(s.ids, id)
	}
	for i, n := range s.nodes {
		for j, m := range s.nodes {
			if i != j {
				if err := n.SetPeer(s.ids[j], m.Addr()); err != nil {
					s.close()
					return nil, err
				}
			}
		}
	}
	for _, n := range s.nodes {
		if err := n.Start(); err != nil {
			s.close()
			return nil, err
		}
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = clusterClients
	s.count = &countingTransport{rt: tr}
	s.client = &cluster.Client{Base: s.nodes[0].Addr(), HC: &http.Client{Transport: s.count}}
	return s, nil
}

// owner returns the node rendezvous hashing places home on.
func (s *clusterSystem) owner(home string) *cluster.Node {
	id := cluster.Owner(home, s.ids)
	for i, n := range s.nodes {
		if s.ids[i] == id {
			return n
		}
	}
	return nil
}

func (s *clusterSystem) close() error {
	var errs []error
	for _, n := range s.nodes {
		errs = append(errs, n.Close())
	}
	s.nodes = nil
	if s.count != nil {
		s.count.rt.(*http.Transport).CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// stream posts every home's batches from clusterClients goroutines, each
// owning every clusterClients-th home and sending its homes round-robin,
// one batch at a time; each Send returns on the 200 that follows the
// owner's drain.
func (s *clusterSystem) stream(tr *tracer) (*passResult, error) {
	in := s.in
	res := &passResult{outputs: make([]homeOutput, len(in.homes))}
	start := time.Now()
	collectors := make([]*alertCollector, len(s.nodes))
	for i, n := range s.nodes {
		collectors[i] = collectAlerts(n.Hub().Alerts(), start)
		defer collectors[i].finish()
	}

	type clientResult struct {
		lat, local, proxied latencies
		attempted, failed   int64
	}
	results := make([]clientResult, clusterClients)
	var wg sync.WaitGroup
	var req atomic.Int64
	for c := 0; c < clusterClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			send := func(home string, payload []byte, timed bool) {
				id := req.Add(1)
				sp := tr.start("cluster.Client.Send", "cluster", id, nil)
				t0 := time.Now()
				err := s.client.Send(context.Background(), home, payload)
				d := time.Since(t0)
				tr.finish(sp)
				r.attempted++
				if err != nil {
					r.failed++
					return
				}
				if !timed {
					return
				}
				r.lat.add(d)
				if s.owner(home) == s.nodes[0] {
					r.local.add(d)
				} else {
					r.proxied.add(d)
				}
			}
			for k := 0; ; k++ {
				more := false
				for i := c; i < len(in.homes); i += clusterClients {
					if k < len(in.homes[i].batches) {
						more = true
						send(in.homes[i].name, in.homes[i].batches[k], true)
					}
				}
				if !more {
					break
				}
			}
			for i := c; i < len(in.homes); i += clusterClients {
				send(in.homes[i].name, in.homes[i].advance, false)
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.events = in.events
	for _, r := range results {
		res.lat = append(res.lat, r.lat...)
		res.local = append(res.local, r.local...)
		res.proxied = append(res.proxied, r.proxied...)
		res.attempted += r.attempted
		res.failed += r.failed
	}
	res.retries = s.count.requests.Load() - res.attempted
	for _, n := range s.nodes {
		res.retries += n.Metric(cluster.MetricRetries)
	}

	want := make([]int64, len(s.nodes))
	for i := range in.homes {
		found := false
		for j, n := range s.nodes {
			if tn, ok := n.Hub().Tenant(in.homes[i].name); ok {
				res.outputs[i].Stats = tn.Stats()
				want[j] += res.outputs[i].Stats.Alerts
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: no node hosts %s", in.homes[i].name)
		}
	}
	index := make(map[string]int, len(in.homes))
	for i := range in.homes {
		index[in.homes[i].name] = i
	}
	for j, c := range collectors {
		if err := c.wait(want[j]); err != nil {
			return nil, fmt.Errorf("cluster: node %s: %w", s.ids[j], err)
		}
		for _, a := range c.finish() {
			i := index[a.home]
			res.outputs[i].Alerts = append(res.outputs[i].Alerts, a.rec)
		}
	}
	for _, n := range s.nodes {
		for _, st := range n.Hub().ShardStats() {
			res.shardOps = append(res.shardOps, st.Ops)
			res.shed += st.Shed
		}
	}
	return res, nil
}
