package core

import (
	"fmt"
	"time"

	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/stats"
	"repro/internal/window"
)

// Trainer runs the precomputation phase. It is a two-pass streaming design
// so the caller never has to hold a 300-hour recording in memory:
//
//	t := NewTrainer(layout, duration)
//	for each window o: t.Calibrate(o)   // pass 1: numeric sensor means
//	t.FinishCalibration()
//	for each window o: t.Learn(o)       // pass 2: groups + transitions
//	ctx := t.Context()
//
// Pass 1 computes each numeric sensor's mean, which becomes its valueThre
// (Eq. 3.4: "we set valueThre as the corresponding sensor's mean value of
// the data collected during the precomputation phase"). Pass 2 interns
// groups and counts G2G/G2A/A2G transitions. The paper assumes the
// precomputation data is fault-free; the trainer trusts its input likewise.
type Trainer struct {
	layout   *window.Layout
	duration time.Duration
	welford  []stats.Welford
	bin      *Binarizer
	cb       *ContextBuilder
	built    *Context

	prevGroup int
	prevVec   *bitvec.Vec
	prevActs  []device.ID
	windows   int

	// Timing statistics: dwell counts the consecutive windows
	// spent in prevGroup as of the last learned window, and lastFire maps
	// each actuator slot to the window index of its most recent firing.
	// The detector maintains the same two quantities at run time, so a
	// replay of the training stream reproduces every recorded gap exactly.
	dwell    int
	lastFire []int
}

// NewTrainer returns a trainer for the layout at the given window duration.
func NewTrainer(layout *window.Layout, duration time.Duration) *Trainer {
	if duration <= 0 {
		duration = DefaultDuration
	}
	lastFire := make([]int, layout.NumActuators())
	for i := range lastFire {
		lastFire[i] = -1
	}
	return &Trainer{
		layout:    layout,
		duration:  duration,
		welford:   make([]stats.Welford, layout.NumNumeric()),
		prevGroup: NoGroup,
		lastFire:  lastFire,
	}
}

// Calibrate folds one window into the numeric-mean accumulators (pass 1).
func (t *Trainer) Calibrate(o *window.Observation) error {
	if t.bin != nil {
		return fmt.Errorf("core: Calibrate called after FinishCalibration")
	}
	if len(o.Numeric) != len(t.welford) {
		return fmt.Errorf("core: observation has %d numeric slots, layout wants %d",
			len(o.Numeric), len(t.welford))
	}
	for j, samples := range o.Numeric {
		for _, s := range samples {
			t.welford[j].Add(s)
		}
	}
	return nil
}

// FinishCalibration freezes the thresholds and prepares pass 2.
func (t *Trainer) FinishCalibration() error {
	if t.bin != nil {
		return fmt.Errorf("core: FinishCalibration called twice")
	}
	thre := make([]float64, len(t.welford))
	for j := range t.welford {
		thre[j] = t.welford[j].Mean()
	}
	bin, err := NewBinarizer(t.layout, thre)
	if err != nil {
		return err
	}
	cb, err := NewContextBuilder(t.layout, t.duration, thre)
	if err != nil {
		return err
	}
	t.bin = bin
	t.cb = cb
	return nil
}

// Learn folds one window into the group catalogue and transition matrices
// (pass 2). Windows must arrive in time order.
func (t *Trainer) Learn(o *window.Observation) error {
	if t.bin == nil {
		return fmt.Errorf("core: Learn called before FinishCalibration")
	}
	if t.built != nil {
		return fmt.Errorf("core: Learn called after Context")
	}
	v, err := t.bin.StateSet(o)
	if err != nil {
		return err
	}
	g := t.cb.AddGroup(v)
	if t.prevGroup != NoGroup {
		t.cb.ObserveG2G(t.prevGroup, g)
		// Timing: the dwell in the previous group is the G2G gap of a hop
		// (self-transitions extend the dwell instead of closing a gap) and
		// the G2A gap of every firing out of it.
		if g != t.prevGroup && t.dwell > 0 {
			t.cb.ObserveG2GGap(t.prevGroup, g, t.dwell)
		}
		// Case-2 statistics: group at t-1 -> actuators fired at t.
		for _, act := range o.Actuated {
			if slot, ok := t.layout.ActuatorSlot(act); ok {
				t.cb.ObserveG2A(t.prevGroup, slot)
				if t.dwell > 0 {
					t.cb.ObserveG2AGap(t.prevGroup, slot, t.dwell)
				}
			}
		}
		// Timing: entering a different group within the A2G horizon of a
		// firing records how long after that firing the hop landed.
		if g != t.prevGroup {
			for slot, at := range t.lastFire {
				if at < 0 {
					continue
				}
				if gap := o.Index - at; gap >= 1 && gap <= TimingA2GHorizon {
					t.cb.ObserveA2GGap(slot, g, gap)
				}
			}
		}
	}
	// Case-3 statistics: actuators fired at t-1 -> group at t.
	for _, act := range t.prevActs {
		if slot, ok := t.layout.ActuatorSlot(act); ok {
			t.cb.ObserveA2G(slot, g)
		}
	}
	// Effect statistics: sensors whose bits rose in the same window an
	// actuator activated (used to attribute missing effects to silent
	// actuators during identification).
	if len(o.Actuated) > 0 && t.prevVec != nil {
		var rising []int
		for _, bit := range v.Diff(t.prevVec) {
			if v.Get(bit) {
				rising = append(rising, bit)
			}
		}
		if len(rising) > 0 {
			devs, err := t.bin.DevicesForBits(rising)
			if err != nil {
				return err
			}
			for _, act := range o.Actuated {
				if slot, ok := t.layout.ActuatorSlot(act); ok {
					t.cb.ObserveEffect(slot, devs)
				}
			}
		}
	}
	if g == t.prevGroup {
		t.dwell++
	} else {
		t.dwell = 1
	}
	for _, act := range o.Actuated {
		if slot, ok := t.layout.ActuatorSlot(act); ok {
			t.lastFire[slot] = o.Index
		}
	}
	t.prevGroup = g
	t.prevVec = v
	t.prevActs = append(t.prevActs[:0], o.Actuated...)
	t.windows++
	return nil
}

// Windows returns the number of windows learned in pass 2.
func (t *Trainer) Windows() int { return t.windows }

// ValueThre returns the calibrated numeric thresholds. It errors before
// FinishCalibration.
func (t *Trainer) ValueThre() ([]float64, error) {
	if t.bin == nil {
		return nil, fmt.Errorf("core: ValueThre requested before FinishCalibration")
	}
	return t.bin.ValueThre(), nil
}

// Context seals and returns the trained context (epoch 0 of the version
// chain). It returns an error when no windows have been learned — an empty
// context cannot detect anything. Training ends here: the built snapshot is
// cached, repeated calls return it, and further Learn calls are rejected.
func (t *Trainer) Context() (*Context, error) {
	if t.built != nil {
		return t.built, nil
	}
	if t.cb == nil {
		return nil, fmt.Errorf("core: Context requested before FinishCalibration")
	}
	if t.cb.NumGroups() == 0 {
		return nil, fmt.Errorf("core: no windows learned; context is empty")
	}
	ctx, err := t.cb.Build()
	if err != nil {
		return nil, err
	}
	t.built = ctx
	return t.built, nil
}

// TrainWindows is the batch convenience: it runs both passes over a slice
// of windows and returns the context.
func TrainWindows(layout *window.Layout, duration time.Duration, obs []*window.Observation) (*Context, error) {
	t := NewTrainer(layout, duration)
	for _, o := range obs {
		if err := t.Calibrate(o); err != nil {
			return nil, err
		}
	}
	if err := t.FinishCalibration(); err != nil {
		return nil, err
	}
	for _, o := range obs {
		if err := t.Learn(o); err != nil {
			return nil, err
		}
	}
	return t.Context()
}
