// Package core implements DICE, the paper's contribution: faulty-device
// detection and identification for smart homes via context extraction.
//
// The package mirrors the paper's two phases:
//
//   - Precomputation (Trainer): windowed observations are binarized into
//     sensor state sets (Eqs. 3.1-3.4); each unique state set becomes a
//     group, and three Markov matrices — group-to-group (G2G),
//     group-to-actuator (G2A), and actuator-to-group (A2G) — are counted
//     over the window sequence. The result is a Context.
//   - Real time (Detector): each live window is binarized and put through a
//     correlation check (is there a main group at Hamming distance 0?) and a
//     transition check (three zero-probability cases). On a violation the
//     detector enters identification, intersecting per-window probable-fault
//     sets until at most numThre devices remain, then emits an Alert.
package core

import (
	"time"

	"repro/internal/device"
)

// Default tuning values; each mirrors either an explicit paper parameter or
// a documented extension (see DESIGN.md).
const (
	// DefaultDuration is the paper's empirically optimal window length.
	DefaultDuration = time.Minute
	// DefaultMaxFaults is the single-fault assumption of §V (numThre = 1).
	DefaultMaxFaults = 1
	// DefaultIdentifyGiveUp bounds how many consecutive uninformative
	// (violation-free) windows identification tolerates before reporting the
	// current intersection. It is deliberately patient (two hours at the
	// default duration): in a sparsely instrumented home the next piece of
	// evidence arrives with the next activity, and reporting early freezes
	// a still-wide intersection (the paper's houseA identification averages
	// 72.8 minutes for the same reason).
	DefaultIdentifyGiveUp = 120
	// DefaultMaxIdentifyWindows hard-caps an identification episode.
	DefaultMaxIdentifyWindows = 480
	// DefaultMaxStalls bounds how many times an empty intersection update is
	// ignored before the current intersection is reported as-is.
	DefaultMaxStalls = 5
)

// Config tunes DICE. The zero value is usable: Normalize fills defaults.
type Config struct {
	// Duration is the state-set window length. Purely informational here
	// (windowing happens in internal/window); persisted with the context so
	// a detector refuses mismatched windows at a higher layer.
	Duration time.Duration

	// MaxFaults is the number of simultaneous faults the system considers.
	// It sets numThre (identification stops when the intersection has at
	// most this many devices) and the default candidate distance.
	MaxFaults int

	// CandidateDistance is the maximum Hamming distance at which a group is
	// considered a probable group during the correlation check. The paper
	// uses MaxFaults bit-flips; we default to 3*MaxFaults so that a numeric
	// sensor fault, which owns three bits, still finds its probable groups.
	// Zero means "derive from MaxFaults".
	CandidateDistance int

	// IdentifyGiveUp is the number of consecutive uninformative windows
	// after which identification reports its current intersection.
	IdentifyGiveUp int

	// MaxIdentifyWindows hard-caps identification episode length.
	MaxIdentifyWindows int

	// MaxStalls is the number of empty-intersection updates tolerated
	// before reporting.
	MaxStalls int

	// Weights optionally assigns criticality/failure weights to devices
	// (§VI). When a device with weight >= WeightAlarm enters the probable
	// set, the alert fires immediately even above numThre.
	Weights map[device.ID]float64

	// WeightAlarm is the weight threshold for early alerts; <= 0 disables
	// the mechanism.
	WeightAlarm float64

	// Attest, when non-nil, is the optional attestation step of §3.4 ("we
	// may add an additional attestation step for a verification purpose"):
	// it is called with the devices identification is about to report and
	// returns the subset that failed attestation. Devices that pass (are
	// filtered out) are dropped from the alert; if every device passes,
	// the episode is dismissed as a false alarm and detection resumes.
	Attest func(devices []device.ID) []device.ID

	// DisableTiming turns the interval-band timing check off.
	DisableTiming bool

	// TimingMinSamples is the minimum number of recorded gaps an edge's
	// sketch needs before the timing check trusts its band; zero means
	// DefaultTimingMinSamples.
	TimingMinSamples int

	// TimingSlackBuckets widens the learned band by this many log2 buckets
	// on each side before a gap counts as out of band; values <= 0 mean
	// DefaultTimingSlackBuckets.
	TimingSlackBuckets int

	// TimingQuantileLo/TimingQuantileHi bound the learned band by sketch
	// quantiles. The defaults (0, 1) keep the full observed range, so only
	// gaps beyond anything seen in training (plus slack) flag.
	TimingQuantileLo float64
	TimingQuantileHi float64

	// TimingFlagFast also flags gaps that undershoot the band (a transition
	// arriving implausibly early). Off by default: early arrivals are far
	// more often benign than late ones.
	TimingFlagFast bool
}

// Normalize returns a copy of c with zero fields replaced by defaults.
func (c Config) Normalize() Config {
	if c.Duration <= 0 {
		c.Duration = DefaultDuration
	}
	if c.MaxFaults <= 0 {
		c.MaxFaults = DefaultMaxFaults
	}
	if c.CandidateDistance <= 0 {
		c.CandidateDistance = 3 * c.MaxFaults
	}
	if c.IdentifyGiveUp <= 0 {
		c.IdentifyGiveUp = DefaultIdentifyGiveUp
	}
	if c.MaxIdentifyWindows <= 0 {
		c.MaxIdentifyWindows = DefaultMaxIdentifyWindows
	}
	if c.MaxStalls <= 0 {
		c.MaxStalls = DefaultMaxStalls
	}
	if c.TimingMinSamples <= 0 {
		c.TimingMinSamples = DefaultTimingMinSamples
	}
	if c.TimingSlackBuckets <= 0 {
		c.TimingSlackBuckets = DefaultTimingSlackBuckets
	}
	if c.TimingQuantileLo < 0 {
		c.TimingQuantileLo = 0
	}
	if c.TimingQuantileHi <= 0 || c.TimingQuantileHi > 1 {
		c.TimingQuantileHi = 1
	}
	return c
}
