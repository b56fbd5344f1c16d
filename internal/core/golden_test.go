package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/simhome"
	"repro/internal/window"
)

// goldenContext was written by Context.Save at commit 415006c, the last
// one that still read two context schemas: goldenHome's context, trained
// on its first three days at one-minute windows.
const goldenContext = "testdata/houseA.ctx"

// goldenHome is the simulated D_houseA home (seed 21, five days) behind
// the golden context, with its context trained on the first three days.
func goldenHome(t *testing.T) (*simhome.Home, *Context) {
	t.Helper()
	spec := simhome.SpecDHouseA()
	spec.Name = "golden"
	spec.Hours = 5 * 24
	h, err := simhome.New(spec, 21)
	if err != nil {
		t.Fatal(err)
	}
	train := make([]*window.Observation, 3*24*60)
	for i := range train {
		train[i] = h.Window(i)
	}
	ctx, err := TrainWindows(h.Layout(), time.Minute, train)
	if err != nil {
		t.Fatal(err)
	}
	return h, ctx
}

// TestGoldenContext loads a trained context saved before the format was
// narrowed to one schema. This build must train the same bytes, load the
// file to the same fingerprint, re-save it byte for byte, and detect on
// it exactly as on its own freshly trained context.
func TestGoldenContext(t *testing.T) {
	h, fresh := goldenHome(t)
	data, err := os.ReadFile(goldenContext)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fresh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Error("this build trains different bytes than the golden context")
	}
	loaded, err := LoadContext(bytes.NewReader(data), h.Layout())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fingerprint() != fresh.Fingerprint() {
		t.Errorf("fingerprint %s, want %s", loaded.Fingerprint(), fresh.Fingerprint())
	}
	buf.Reset()
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Error("re-saved golden context differs from the file")
	}

	// Detect over the held-out afternoons with a spuriously firing bulb,
	// on the loaded and on the fresh context.
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
	detA, err := New(loaded, WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	detB, err := New(fresh, WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	for i := start; i < start+6*60; i++ {
		o := faulty.Window(i)
		ra, err := detA.Process(o.Clone())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := detB.Process(o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTiming(ra), stripTiming(rb)) {
			t.Fatalf("window %d diverged:\n loaded: %+v\n fresh:  %+v", i, ra, rb)
		}
		alerts += len(ra.Alerts)
	}
	if alerts == 0 {
		t.Error("no alerts on the faulty stream; the comparison is vacuous")
	}
}

// goldenIdentify was written by identifyTranscript at commit f5d4542, the
// last one that ran identification on two paths (one for MaxFaults == 1,
// one for MaxFaults > 1).
const goldenIdentify = "testdata/identify.golden"

// Every run feeds the detector the same stretch of goldenHome's held-out
// days, three hours from 08:00 on the first of them.
const (
	identifyFrom    = 3*24*60 + 8*60
	identifyStretch = 3 * 60
)

// identifyRun is one detector configuration fed one corrupted stretch.
type identifyRun struct {
	name string
	cfg  Config
	// plan draws the injected faults; ghosts are added on top through a
	// faults.Scenario.
	plan   func(l *window.Layout) ([]faults.Fault, error)
	ghosts []faults.GhostSpec
	// checks, when set, replaces DefaultChecks.
	checks []Check
}

// emptyCheck raises a finding without suspects every period windows from
// window from on. The built-in checks always name a suspect, so their
// episodes' pools stay pairwise disjoint; an empty pool is a subset of
// every other, which is the only way two episodes nest and merge.
type emptyCheck struct{ from, period int }

func (emptyCheck) Name() string { return "empty" }

func (emptyCheck) Cause() Cause { return CheckCorrelation }

func (c emptyCheck) Run(_ *Detector, in CheckInput) *Finding {
	if in.Obs.Index < c.from || (in.Obs.Index-c.from)%c.period != 0 {
		return nil
	}
	return &Finding{Cause: CheckCorrelation}
}

// planned returns a plan of n faults of the given classes, drawn with seed.
func planned(seed int64, n int, classes ...faults.Type) func(*window.Layout) ([]faults.Fault, error) {
	return func(l *window.Layout) ([]faults.Fault, error) {
		return faults.Plan(l, rand.New(rand.NewSource(seed)), n, classes, 20, 90)
	}
}

// plannedBoth concatenates two plans.
func plannedBoth(a, b func(*window.Layout) ([]faults.Fault, error)) func(*window.Layout) ([]faults.Fault, error) {
	return func(l *window.Layout) ([]faults.Fault, error) {
		fa, err := a(l)
		if err != nil {
			return nil, err
		}
		fb, err := b(l)
		return append(fa, fb...), err
	}
}

// identifyRuns covers numThre = 1 with every sensor and actuator fault
// class, with a ghost and with a weighted device reported early, and
// numThre = 2 with two concurrent faults, with a ghost storm and with
// suspect-free findings that make episodes merge. The plan seeds pick
// devices that are active in the stretch. The injector drops a dead
// actuator's firings but not their effect on the simulated sensors, so
// that stretch stays clean and its run records only its header.
func identifyRuns(h *simhome.Home) []identifyRun {
	seeds := map[faults.Type]int64{
		faults.FailStop: 36, faults.Outlier: 35, faults.StuckAt: 36, faults.HighNoise: 41,
		faults.Spike: 41, faults.ActuatorSpurious: 33, faults.ActuatorDead: 31,
	}
	var runs []identifyRun
	for _, c := range append(faults.SensorTypes(), faults.ActuatorTypes()...) {
		runs = append(runs, identifyRun{
			name: "numThre=1/" + c.String(),
			plan: planned(seeds[c], 1, c),
		})
	}
	reg := h.Registry()
	weights := make(map[device.ID]float64)
	for _, id := range reg.Numerics() {
		weights[id] = 1
	}
	spurious := planned(33, 1, faults.ActuatorSpurious)
	ghost := []faults.GhostSpec{{Device: device.ID(reg.Len() + 1000), Onset: 60, Every: 3}}
	return append(runs,
		identifyRun{
			name: "numThre=1/weights",
			cfg:  Config{Weights: weights, WeightAlarm: 1},
			plan: spurious,
		},
		identifyRun{
			name:   "numThre=1/ghost",
			plan:   spurious,
			ghosts: ghost,
		},
		identifyRun{
			name: "numThre=2/two-faults",
			cfg:  Config{MaxFaults: 2},
			plan: plannedBoth(planned(41, 1, faults.HighNoise), spurious),
		},
		identifyRun{
			name:   "numThre=2/ghost-storm",
			cfg:    Config{MaxFaults: 2},
			plan:   plannedBoth(planned(36, 1, faults.FailStop), spurious),
			ghosts: ghost,
		},
		identifyRun{
			name:   "numThre=2/empty-findings",
			cfg:    Config{MaxFaults: 2},
			plan:   spurious,
			checks: append(DefaultChecks(), emptyCheck{from: identifyFrom + 90, period: 40}),
		},
	)
}

// identifyRecord is the transcript line of one non-clean window.
type identifyRecord struct {
	Window      int         `json:"window"`
	Violation   CheckKind   `json:"violation"`
	Detected    bool        `json:"detected,omitempty"`
	Identifying bool        `json:"identifying,omitempty"`
	Probable    []device.ID `json:"probable,omitempty"`
	Alerts      []*Alert    `json:"alerts,omitempty"`
}

// identifyTranscript runs every identifyRun and records, for each window
// that is not clean, what the detector concluded: one header line per run,
// one JSON line per window.
func identifyTranscript(t *testing.T) []byte {
	t.Helper()
	h, ctx := goldenHome(t)
	var buf bytes.Buffer
	for _, run := range identifyRuns(h) {
		transcribeRun(t, h, ctx, run, &buf)
	}
	return buf.Bytes()
}

// transcribeRun appends one run's transcript to buf.
func transcribeRun(t *testing.T, h *simhome.Home, ctx *Context, run identifyRun, buf *bytes.Buffer) {
	t.Helper()
	plan, err := run.plan(h.Layout())
	if err != nil {
		t.Fatalf("%s: %v", run.name, err)
	}
	sc := faults.Scenario{Name: run.name, Seed: 21, Faults: plan, Ghosts: run.ghosts}
	obs, err := sc.Apply(h.Layout(), h.WindowRange(identifyFrom, identifyFrom+identifyStretch))
	if err != nil {
		t.Fatalf("%s: %v", run.name, err)
	}
	opts := []Option{WithConfig(run.cfg)}
	if run.checks != nil {
		opts = append(opts, WithChecks(run.checks...))
	}
	d, err := New(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(buf, "# %s %v ghosts=%v\n", run.name, plan, run.ghosts)
	for _, o := range obs {
		res, err := d.Process(o)
		if err != nil {
			t.Fatalf("%s window %d: %v", run.name, o.Index, err)
		}
		if res.Violation == CheckNone && !res.Identifying && len(res.Alerts) == 0 {
			continue
		}
		line, err := json.Marshal(identifyRecord{
			Window:      res.WindowIndex,
			Violation:   res.Violation,
			Detected:    res.Detected,
			Identifying: res.Identifying,
			Probable:    res.Probable,
			Alerts:      res.Alerts,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
}

// TestGoldenIdentification replays the identification transcript written
// before numThre = 1 became the episode engine with a cap of one: every
// verdict, probable set, alert and Explain trace must match byte for byte.
func TestGoldenIdentification(t *testing.T) {
	want, err := os.ReadFile(goldenIdentify)
	if err != nil {
		t.Fatal(err)
	}
	got := identifyTranscript(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("transcript line %d differs:\n got:  %s\n want: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("transcript has %d lines, want %d", len(gl), len(wl))
}
