// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the system's public API, checks every output against a
// serial solo-gateway replay of the same streams, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload hub-clean --seed 1 --seconds 28 --trace 0
//
// The workloads are listed in BENCHMARK.json with the reason each exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/simhome"
)

// passResult is what one timed pass of a workload produced.
type passResult struct {
	wall              time.Duration
	events            int64
	lat               latencies // the workload's user-facing latency, one sample per op
	attempted, failed int64
	retries           int64
	outputs           []homeOutput
	shardOps          []int64
	shed              int64
	recovery          time.Duration // cold WAL recovery (coap-durable)
	local, proxied    latencies     // cluster sends by whether the entry node owned the home
	heapMB            float64       // live heap the running system retained at the end of the pass
}

// system is one constructed instance of a workload's stack.
type system interface {
	stream(tr *tracer) (*passResult, error)
	close() error
}

// workload is one benchmark workload: how its inputs are shaped and how
// its system is built.
type workload struct {
	name  string
	shape shape
	// producers is how many goroutines send concurrently; the traced run
	// counts the end-to-end time once per producer.
	producers int
	build     func(in *inputs, cctx *core.Context, dir string) (system, error)
}

func workloads(scale float64) []workload {
	n := func(x int) int { return max(1, int(float64(x)*scale)) }
	return []workload{
		{
			name:      "hub-clean",
			shape:     shape{spec: simhome.SpecDHouseA(), homes: n(32), hours: n(6)},
			producers: 1,
			build: func(in *inputs, cctx *core.Context, _ string) (system, error) {
				return buildHub(in, cctx, false)
			},
		},
		{
			name:      "hub-faulty",
			shape:     shape{spec: simhome.SpecTwoR(), homes: max(2, n(32)), hours: n(24), faultyEvery: 2},
			producers: 1,
			build: func(in *inputs, cctx *core.Context, _ string) (system, error) {
				return buildHub(in, cctx, true)
			},
		},
		{
			name:      "coap-durable",
			shape:     shape{spec: simhome.SpecDHouseA(), homes: 1, hours: n(8)},
			producers: 1,
			build: func(in *inputs, cctx *core.Context, dir string) (system, error) {
				return buildCoAP(in, cctx, dir)
			},
		},
		{
			name:      "cluster-durable",
			shape:     shape{spec: simhome.SpecDHouseA(), homes: n(8), hours: n(6)},
			producers: clusterClients,
			build: func(in *inputs, cctx *core.Context, dir string) (system, error) {
				return buildCluster(in, cctx, dir)
			},
		},
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	scale    float64
	// mutateRef alters the reference outputs before any pass is checked;
	// the self-test uses it to show that a wrong reference fails the run.
	mutateRef func([]homeOutput)
}

// setupReps is how many times set-up (training plus construction) is
// repeated per run; setup_s is their median.
const setupReps = 21

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 28, "seconds of timed passes")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for WALs, checkpoints and the trace file")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.scale = 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload end to end and returns its result.
func run(cfg config) (*result, error) {
	var wl *workload
	for _, w := range workloads(cfg.scale) {
		if w.name == cfg.workload {
			wl = &w
			break
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	dir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := generate(wl.shape, cfg.seed)
	if err != nil {
		return nil, err
	}
	cctx, err := train(in)
	if err != nil {
		return nil, err
	}
	ref, err := reference(cctx, in)
	if err != nil {
		return nil, err
	}
	if cfg.mutateRef != nil {
		cfg.mutateRef(ref)
	}

	setup := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		t0 := time.Now()
		c, err := train(in)
		if err != nil {
			return nil, err
		}
		sys, err := wl.build(in, c, filepath.Join(dir, fmt.Sprintf("setup-%d", r)))
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		if err := sys.close(); err != nil {
			return nil, err
		}
	}

	r := &runner{wl: wl, in: in, cctx: cctx, ref: ref, dir: dir}
	// Untimed warm-up: the first in-process passes run slow while caches,
	// pools and the heap grow to their steady size.
	if _, err := r.passes(min(warmupSeconds, cfg.seconds), nil); err != nil {
		return r.fail(err)
	}
	if !cfg.trace {
		ps, err := r.passes(cfg.seconds, nil)
		if err != nil {
			return r.fail(err)
		}
		return r.endToEnd(ps, setup), nil
	}
	return r.traced(cfg)
}

// runner holds one workload's inputs, context and reference outputs.
type runner struct {
	wl    *workload
	in    *inputs
	cctx  *core.Context
	ref   []homeOutput
	dir   string
	npass int
}

// fail turns an oracle mismatch into an incorrect result and passes any
// other error through.
func (r *runner) fail(err error) (*result, error) {
	var mis *mismatch
	if errors.As(err, &mis) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, nil
	}
	return nil, err
}

// mismatch is an output that differs from the reference.
type mismatch struct{ err error }

func (m *mismatch) Error() string { return m.err.Error() }

// pass builds a fresh system, streams the inputs through it once, and
// checks its outputs against the reference.
func (r *runner) pass(tr *tracer) (*passResult, error) {
	r.npass++
	// Collecting the previous pass's garbage here, outside any timed
	// region, also makes every pass start from the same heap.
	base := liveHeap()
	sys, err := r.wl.build(r.in, r.cctx, filepath.Join(r.dir, fmt.Sprintf("pass-%d", r.npass)))
	if err != nil {
		return nil, err
	}
	pr, err := sys.stream(tr)
	if err == nil {
		pr.heapMB = (float64(liveHeap()) - float64(base)) / (1 << 20)
	}
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := compare(pr.outputs, r.ref, r.in); err != nil {
		return nil, &mismatch{err}
	}
	return pr, nil
}

// minPasses is the fewest passes a measurement makes, however long each
// is, and warmupSeconds the least time the untimed warm-up runs.
const (
	minPasses     = 3
	warmupSeconds = 1.0
)

// passes runs timed passes until seconds have elapsed.
func (r *runner) passes(seconds float64, tr *tracer) ([]*passResult, error) {
	var out []*passResult
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(out) < minPasses || time.Now().Before(deadline) {
		pr, err := r.pass(tr)
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// endToEnd summarizes untraced passes into the end-to-end metrics.
func (r *runner) endToEnd(ps []*passResult, setup []float64) *result {
	var rates, p50 []float64
	var peakMB float64
	var attempted, failed int64
	var samples int
	for _, p := range ps {
		rates = append(rates, float64(p.events)/p.wall.Seconds())
		p50 = append(p50, p.lat.quantile(0.50))
		attempted += p.attempted
		failed += p.failed
		samples += len(p.lat)
		peakMB = max(peakMB, p.heapMB)
	}
	precision, recall, falseAlarms := score(r.ref, r.in)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes, %d events per pass, %d latency samples, %d false alarms per pass\n",
		r.wl.name, len(ps), r.in.events, samples, falseAlarms)
	return &result{
		Correct:   true,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {medianOf(setup), "s"},
			"events_per_s":    {medianOf(rates), "events/s"},
			"latency_p50_ms":  {medianOf(p50), "ms"},
			"ok_ops_ratio":    {float64(attempted-failed) / float64(attempted), "ratio"},
			"mem_peak_mb":     {peakMB, "MB"},
			"ident_precision": {precision, "ratio"},
			"ident_recall":    {recall, "ratio"},
		},
	}
}
