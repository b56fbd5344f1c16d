package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/simhome"
	"repro/internal/window"
	"repro/internal/wire"
)

// batchSize is how many readings travel in one DWB1 report.
const batchSize = 64

// trainHours is the training slice every workload learns its context from.
const trainHours = 72

// faultKind is one of the two faults the benchmark injects into streams.
type faultKind string

const (
	// failStop drops every event of the sensor from the onset on.
	failStop faultKind = "fail-stop"
	// stuckOn makes the sensor fire in every window from the onset on.
	stuckOn faultKind = "stuck-on"
)

// injected is the ground truth of one injected fault.
type injected struct {
	Kind   faultKind
	Device device.ID
	Onset  time.Duration
}

// homeInput is one home's generated stream, already cut into DWB1 report
// batches the way a device agent would send it.
type homeInput struct {
	name    string
	events  []event.Event
	batches [][]byte // batches[k] encodes events[k*batchSize : (k+1)*batchSize]
	advance []byte   // the final clock advance to end
	end     time.Duration
	fault   *injected
}

// batchEvents returns the events batch k carries.
func (h *homeInput) batchEvents(k int) []event.Event {
	return h.events[k*batchSize : min((k+1)*batchSize, len(h.events))]
}

// inputs is everything a workload feeds the system: the training windows
// the context is learnt from and the per-home streams. The program under
// test sees only these.
type inputs struct {
	layout *window.Layout
	train  []*window.Observation
	homes  []homeInput
	events int64
}

// shape sizes a workload's inputs.
type shape struct {
	spec        simhome.Spec
	homes       int
	hours       int // stream length per home
	faultyEvery int // every n-th home carries a fault (0 = none)
}

// generate builds the inputs for one seed. Homes are consecutive,
// non-overlapping slices of one simulated house after its training slice,
// so every home matches the trained context but replays different days.
func generate(s shape, seed int64) (*inputs, error) {
	spec := s.spec
	spec.Hours = trainHours + s.homes*s.hours + 1
	sim, err := simhome.New(spec, seed)
	if err != nil {
		return nil, err
	}
	trainW := trainHours * 60
	in := &inputs{
		layout: sim.Layout(),
		train:  sim.WindowRange(0, trainW),
		homes:  make([]homeInput, s.homes),
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range in.homes {
		start := trainW + i*s.hours*60
		evts := sim.Events(start, start+s.hours*60)
		for j := range evts {
			evts[j].At -= time.Duration(start) * time.Minute
		}
		h := homeInput{name: fmt.Sprintf("home-%02d", i), end: time.Duration(s.hours) * time.Hour}
		if s.faultyEvery > 0 && i%s.faultyEvery == s.faultyEvery-1 {
			kind := failStop
			if (i/s.faultyEvery)%2 == 1 {
				kind = stuckOn
			}
			f, out, err := inject(in.layout, evts, kind, h.end, rng)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", h.name, err)
			}
			h.fault, evts = f, out
		}
		h.events = evts
		for lo := 0; lo < len(evts); lo += batchSize {
			h.batches = append(h.batches, wire.AppendReport(nil, evts[lo:min(lo+batchSize, len(evts))]))
		}
		h.advance = wire.AppendAdvance(nil, h.end)
		in.homes[i] = h
		in.events += int64(len(evts))
	}
	return in, nil
}

// inject applies one fault of the given kind to a binary sensor chosen at
// random among those whose firing rate suits it: fail-stop needs a sensor
// that fires often enough for its silence to break context, stuck-on one
// that is quiet most of the time. The onset falls in the first sixth of
// the stream.
func inject(layout *window.Layout, evts []event.Event, kind faultKind, end time.Duration, rng *rand.Rand) (*injected, []event.Event, error) {
	windows := int(end / time.Minute)
	fired := make(map[device.ID]map[int]bool)
	for _, e := range evts {
		if _, ok := layout.BinarySlot(e.Device); !ok {
			continue
		}
		if fired[e.Device] == nil {
			fired[e.Device] = make(map[int]bool)
		}
		fired[e.Device][int(e.At/time.Minute)] = true
	}
	var pool []device.ID
	for s := 0; s < layout.NumBinary(); s++ {
		id := layout.BinaryID(s)
		rate := float64(len(fired[id])) / float64(windows)
		if (kind == failStop && rate >= 0.05) || (kind == stuckOn && rate <= 0.3) {
			pool = append(pool, id)
		}
	}
	if len(pool) == 0 {
		return nil, nil, fmt.Errorf("no binary sensor suits a %s fault", kind)
	}
	f := &injected{
		Kind:   kind,
		Device: pool[rng.Intn(len(pool))],
		Onset:  time.Duration(30+rng.Intn(max(1, windows/6))) * time.Minute,
	}
	out := make([]event.Event, 0, len(evts)+windows)
	for _, e := range evts {
		if kind == failStop && e.Device == f.Device && e.At >= f.Onset {
			continue
		}
		out = append(out, e)
	}
	if kind == stuckOn {
		for w := int(f.Onset / time.Minute); w < windows; w++ {
			if !fired[f.Device][w] {
				out = append(out, event.Event{At: time.Duration(w)*time.Minute + 30*time.Second, Device: f.Device, Value: 1})
			}
		}
		sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	}
	return f, out, nil
}

// train learns the context from the training windows.
func train(in *inputs) (*core.Context, error) {
	return core.TrainWindows(in.layout, time.Minute, in.train)
}
