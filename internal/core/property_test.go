package core

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/window"
)

// TestScanProperties checks the correlation-check scan invariants over
// arbitrary group catalogues and queries:
//   - a query equal to some group always yields that group as Main;
//   - every Probable group is within the candidate distance, OR no group
//     is and Probable equals the nearest set;
//   - Main is never listed in Probable.
func TestScanProperties(t *testing.T) {
	l := coreLayout(t)
	f := func(groupBits [][8]bool, queryBits [8]bool, maxDist uint8) bool {
		cb, err := NewContextBuilder(l, time.Minute, []float64{0, 0})
		if err != nil {
			return false
		}
		for _, gb := range groupBits {
			cb.AddGroup(bitvec.FromBools(gb[:]))
		}
		ctx, err := cb.Build()
		if err != nil {
			return false
		}
		if ctx.NumGroups() == 0 {
			return true
		}
		q := bitvec.FromBools(queryBits[:])
		dist := int(maxDist%4) + 1
		c := ctx.Scan(q, dist)

		if id, ok := ctx.GroupID(q); ok && c.Main != id {
			return false
		}
		for _, p := range c.Probable {
			if p == c.Main {
				return false
			}
			g, err := ctx.Group(p)
			if err != nil {
				return false
			}
			d := q.HammingDistance(g)
			if d == 0 {
				return false // an exact match must be Main, not Probable
			}
			if d > dist && d != c.MinDistance {
				return false // outside threshold and not a nearest fallback
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBinarizerBitOwnership: every bit of every state set maps back to a
// registered sensor, and DevicesForBits is consistent with DeviceForBit.
func TestBinarizerBitOwnership(t *testing.T) {
	l := coreLayout(t)
	b := mustBinarizer(t, l, []float64{20, 100})
	f := func(bins [2]bool, s1, s2 []float64) bool {
		o := l.NewObservation(0)
		copy(o.Binary, bins[:])
		o.Numeric[0] = s1
		o.Numeric[1] = s2
		v, err := b.StateSet(o)
		if err != nil {
			return false
		}
		bits := v.Ones()
		devs, err := b.DevicesForBits(bits)
		if err != nil {
			return false
		}
		seen := make(map[device.ID]bool)
		for _, bit := range bits {
			id, err := b.DeviceForBit(bit)
			if err != nil {
				return false
			}
			seen[id] = true
		}
		if len(devs) != len(seen) {
			return false
		}
		for _, id := range devs {
			if !seen[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTrainerDetectorClosure: any window sequence the trainer has learned
// is violation-free when replayed through the detector (detection is sound
// w.r.t. its own training data), as long as the replay starts from the
// stream head so the transition history matches.
func TestTrainerDetectorClosure(t *testing.T) {
	l := coreLayout(t)
	f := func(seq []uint8) bool {
		if len(seq) < 4 {
			return true
		}
		if len(seq) > 64 {
			seq = seq[:64]
		}
		obs := make([]*window.Observation, len(seq))
		for i, s := range seq {
			o := l.NewObservation(i)
			o.Binary[0] = s&1 != 0
			o.Binary[1] = s&2 != 0
			temp, light := 10.0, 50.0
			if s&4 != 0 {
				temp = 30
			}
			if s&8 != 0 {
				light = 200
			}
			o.Numeric[0] = []float64{temp, temp}
			o.Numeric[1] = []float64{light, light}
			obs[i] = o
		}
		ctx, err := TrainWindows(l, time.Minute, obs)
		if err != nil {
			return false
		}
		det, err := New(ctx)
		if err != nil {
			return false
		}
		for _, o := range obs {
			res, err := det.Process(o)
			if err != nil || res.Detected {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// shuffledCheck flags every window, naming its suspects out of order and
// with duplicates: {4, 0, 4, 2, 0} on even windows, {2, 4, 2} on odd ones.
type shuffledCheck struct{}

func (shuffledCheck) Name() string { return "shuffled" }

func (shuffledCheck) Cause() Cause { return CheckG2A }

func (shuffledCheck) Run(_ *Detector, in CheckInput) *Finding {
	if in.Obs.Index%2 == 0 {
		return &Finding{Cause: CheckG2A, Suspects: []device.ID{4, 0, 4, 2, 0}}
	}
	return &Finding{Cause: CheckG2A, Suspects: []device.ID{2, 4, 2}}
}

// TestAlertDevicesSorted: probable sets, alert devices and Explain
// intersections are always ascending and duplicate-free (the documented
// contract), for a chaotic window and for a custom check whose suspects
// arrive out of order with duplicates.
func TestAlertDevicesSorted(t *testing.T) {
	l, ctx := trainAlternating(t)
	check := func(what string, ids []device.ID) {
		t.Helper()
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("%s not ascending and duplicate-free: %v", what, ids)
			}
		}
	}
	checkResult := func(res Result) {
		t.Helper()
		check("probable", res.Probable)
		for _, a := range res.Alerts {
			check("alert devices", a.Devices)
			for _, s := range a.Explain.Steps {
				check("explain intersection", s.Intersection)
			}
		}
	}

	d := newTestDetector(t, ctx, Config{MaxFaults: 3})
	feedNormal(t, d, l, 0, 6)
	// Force a chaotic window implicating several devices.
	o := makeObs(l, 6, []bool{true, true}, [][]float64{{99, 1, 99}, {500, 1, 500}})
	res, err := d.Process(o)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(res)

	d, err = New(ctx, WithConfig(Config{MaxIdentifyWindows: 3}), WithChecks(shuffledCheck{}))
	if err != nil {
		t.Fatal(err)
	}
	var alerts []*Alert
	for i := 0; i < 4; i++ {
		res, err := d.Process(evenObs(l, i))
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !reflect.DeepEqual(res.Probable, []device.ID{2, 4}) {
			t.Errorf("window %d: probable %v, want [2 4]", i, res.Probable)
		}
		checkResult(res)
		alerts = append(alerts, res.Alerts...)
	}
	if len(alerts) != 1 || !reflect.DeepEqual(alerts[0].Devices, []device.ID{2, 4}) {
		t.Fatalf("alerts %+v, want one naming [2 4]", alerts)
	}
	if got := alerts[0].Explain.Steps[0].Intersection; !reflect.DeepEqual(got, []device.ID{0, 2, 4}) {
		t.Errorf("opening intersection %v, want [0 2 4]", got)
	}
}
