package core

import (
	"fmt"
	"time"

	"repro/internal/bitvec"
	"repro/internal/device"
	"repro/internal/window"
)

// CheckKind names which check flagged a window.
type CheckKind int

// Violation causes. CheckG2G/CheckG2A/CheckA2G are the three transition
// cases of §3.3.2.
const (
	CheckNone CheckKind = iota
	CheckCorrelation
	CheckG2G
	CheckG2A
	CheckA2G
	// CheckLiveness is raised by the gateway, not the detector: a device
	// exceeded its silence threshold — the paper's outage (fail-stop)
	// fault class surfacing at the transport layer before any window-level
	// evidence accumulates.
	CheckLiveness
	// CheckTiming flags a structurally valid transition whose inter-window
	// gap falls outside the interval band learned during training: the
	// right transition at the wrong pace (a delayed actuator, a slowly
	// degrading sensor).
	CheckTiming
	// CheckGhost flags actuator events from a device ID the layout does
	// not know — a spoofed or ghost device injecting traffic into the
	// home.
	CheckGhost
)

// String returns the check name.
func (k CheckKind) String() string {
	switch k {
	case CheckNone:
		return "none"
	case CheckCorrelation:
		return "correlation"
	case CheckG2G:
		return "g2g"
	case CheckG2A:
		return "g2a"
	case CheckA2G:
		return "a2g"
	case CheckLiveness:
		return "liveness"
	case CheckTiming:
		return "timing"
	case CheckGhost:
		return "ghost"
	default:
		return fmt.Sprintf("CheckKind(%d)", int(k))
	}
}

// IsTransition reports whether the check is one of the transition cases.
func (k CheckKind) IsTransition() bool {
	return k == CheckG2G || k == CheckG2A || k == CheckA2G
}

// Timing carries per-stage wall-clock costs for one window (Figure 5.3).
type Timing struct {
	Binarize    time.Duration
	Correlation time.Duration
	Transition  time.Duration
	Identify    time.Duration
}

// Total returns the summed stage cost.
func (t Timing) Total() time.Duration {
	return t.Binarize + t.Correlation + t.Transition + t.Identify
}

// stageClock times Process's stages on every period-th window and is the
// detector's only clock reader. An unsampled window reads no clock:
// each lap returns zero. The window count is a plain counter, so which
// windows are sampled is deterministic; it is not checkpointed.
type stageClock struct {
	period  int
	n       int
	sampled bool
	mark    time.Time
}

// start opens a window, sampling it when it is the period-th since the
// last sampled one.
func (c *stageClock) start() {
	c.n++
	c.sampled = c.n >= c.period
	if c.sampled {
		c.n = 0
		c.mark = time.Now()
	}
}

// lap returns the time since the previous mark and marks now; zero on an
// unsampled window.
func (c *stageClock) lap() time.Duration {
	if !c.sampled {
		return 0
	}
	now := time.Now()
	d := now.Sub(c.mark)
	c.mark = now
	return d
}

// Alert is the final output of an identification episode: the devices DICE
// believes are faulty.
type Alert struct {
	// Devices are the probable faulty devices, ascending by ID.
	Devices []device.ID
	// Cause is the check that detected the episode.
	Cause CheckKind
	// DetectedWindow is the window index at which the violation was first
	// detected; ReportedWindow is when identification concluded. Their
	// difference (times the duration) is the identification latency on top
	// of detection.
	DetectedWindow int
	ReportedWindow int
	// EarlyWeight is true when a device weight (§VI) forced an early
	// report.
	EarlyWeight bool
	// Explain is the decision trace behind the alert: the opening window,
	// matched/probable groups, violated transition, and intersection
	// history. Every episode carries one, restored episodes included.
	Explain *Explain `json:"explain,omitempty"`
}

// Result describes what the detector concluded about one window.
type Result struct {
	// WindowIndex echoes the observation index.
	WindowIndex int
	// MainGroup is the exactly matching group, or NoGroup.
	MainGroup int
	// Violation is the check that flagged this window (CheckNone if clean).
	// Inside an identification episode each window reports its own
	// finding; the episode keeps the cause of its opening window.
	Violation CheckKind
	// Detected is true exactly on a window that opens an episode (the
	// first violation, or — with MaxFaults > 1 — a violation disjoint from
	// every open episode that splits off a new one).
	Detected bool
	// Identifying is true while an episode is in progress (including the
	// opening and reporting windows).
	Identifying bool
	// Probable is the union of the open episodes' probable faulty devices,
	// ascending; nil outside episodes.
	Probable []device.ID
	// Alert is non-nil on a window that concludes an episode; when several
	// episodes conclude on the same window it is the first of Alerts.
	Alert *Alert
	// Alerts carries every episode concluded on this window, in episode
	// opening order. With MaxFaults == 1 it holds at most one entry
	// (identical to Alert).
	Alerts []*Alert
	// Timing carries the per-stage costs for this window when it was
	// sampled (every window by default; sampled, 1 window in 16 on the
	// gateway, see WithStageTimingPeriod) and is zero otherwise.
	Timing Timing
}

// episode tracks one in-progress identification. Its device sets are
// ascending and duplicate-free, and are replaced, never edited in place, so
// one slice may safely back more than one of them.
type episode struct {
	cause          CheckKind
	detectedWindow int
	intersection   []device.ID
	stalls         int
	normalStreak   int
	length         int
	// corroboration counts the informative windows that fed this episode,
	// including the opening one. An alert needs at least the corroboration
	// floor (see minCorroboration), so with numThre > 1 one-off transition
	// glitches (a benign occupancy change clipping a window) die quietly.
	corroboration int
	// missingEffect is true when the opening diff showed only bits that
	// were expected to be set but were not — the signature of a missing
	// actuator effect; surplusEffect is the inverse signature (only
	// unexpected extra bits), raised by a spuriously acting actuator.
	missingEffect bool
	surplusEffect bool
	// openingActs are the actuators that fired in the opening window.
	openingActs []device.ID
	// openingPrev is the previous-window group at the opening window.
	openingPrev int
	// firedActs collects every actuator that activated during the episode
	// (including the opening window); a silent-but-expected actuator whose
	// effect sensors make up the suspect set gets the blame.
	firedActs []device.ID
	// trace accumulates the Explain record reported with the alert.
	trace *Explain
}

// Detector runs the real-time phase against a trained context. It is not
// safe for concurrent use; the gateway serializes windows into it.
type Detector struct {
	cfg Config
	ctx *Context
	bin *Binarizer

	prevGroup int
	prevActs  []device.ID
	// eps holds the open identification episodes in opening order, at
	// most MaxFaults (the paper's numThre) of them, each tracking one
	// suspected fault. numThre = 1 is the same engine with a cap of one.
	eps []*episode

	// checks is the ordered detection pipeline; DefaultChecks unless the
	// detector was built WithChecks.
	checks []Check

	// dwell counts the consecutive windows spent in prevGroup, and lastFire
	// maps each actuator slot to the window index of its most recent firing
	// (-1 = never). They mirror the trainer's bookkeeping exactly, so the
	// gaps the timing check measures are the gaps training recorded.
	dwell    int
	lastFire []int

	// stateVec and scanScratch are per-window scratch: the detector is
	// serial by contract, so one reusable state-set vector and one scan
	// scratch keep the clean-window hot path allocation-free.
	stateVec    *bitvec.Vec
	scanScratch ScanScratch

	// recentActs remembers which window each actuator last fired in, so an
	// episode can tell a dead actuator (no recent firing) from a faulty
	// effect sensor (the actuator fired recently; its effect reached the
	// home but was misreported).
	recentActs map[device.ID]int

	// lastDiffMissingOnly / lastDiffSurplusOnly report the direction of the
	// most recent diffSuspects call: only expected-but-absent bits, or only
	// present-but-unexpected bits.
	lastDiffMissingOnly bool
	lastDiffSurplusOnly bool

	// met holds the telemetry instruments (all nil when uninstrumented;
	// every update below is nil-safe and allocation-free).
	met detMetrics

	// clock fills Result.Timing and dice_scan_seconds on sampled windows.
	clock stageClock
}

// recentActWindows is how far back an actuator firing still counts as "the
// actuator acted recently" when attributing missing effects.
const recentActWindows = 15

// minCorroboration is how many informative windows an episode needs before
// it may alert when numThre > 1; episodes that run out of patience below it
// are dismissed without alerting. With numThre = 1 the floor is 1 — the
// opening window — which is the paper's original conclusion rule.
const minCorroboration = 2

// newDetector is the single construction path behind New.
func newDetector(ctx *Context, o detOptions) (*Detector, error) {
	if ctx == nil {
		return nil, fmt.Errorf("core: nil context")
	}
	if ctx.NumGroups() == 0 {
		return nil, fmt.Errorf("core: context has no groups")
	}
	bin, err := NewBinarizer(ctx.Layout(), ctx.ValueThre())
	if err != nil {
		return nil, err
	}
	checks := o.checks
	if checks == nil {
		checks = DefaultChecks()
	}
	lastFire := make([]int, ctx.Layout().NumActuators())
	for i := range lastFire {
		lastFire[i] = -1
	}
	return &Detector{
		cfg:        o.cfg.Normalize(),
		ctx:        ctx,
		bin:        bin,
		prevGroup:  NoGroup,
		checks:     checks,
		lastFire:   lastFire,
		stateVec:   bitvec.New(bin.NumBits()),
		recentActs: make(map[device.ID]int),
		met:        newDetMetrics(o.tel),
		clock:      stageClock{period: max(o.timingPeriod, 1)},
	}, nil
}

// Context returns the context snapshot the detector currently runs against.
func (d *Detector) Context() *Context { return d.ctx }

// SwapContext atomically replaces the context snapshot the detector scans
// against. The caller must serialize it with Process (the gateway holds its
// lock across both), and the new version must share the old one's layout,
// thresholds, and group-ID prefix — the guarantees Derive provides — so the
// detector's runtime state (previous group, episode references) stays valid
// across the swap. Between swaps the detector reads one immutable snapshot,
// which is what keeps the hot path allocation-free and bit-reproducible.
func (d *Detector) SwapContext(ctx *Context) error {
	if ctx == nil {
		return fmt.Errorf("core: swap to nil context")
	}
	if ctx == d.ctx {
		return nil
	}
	if ctx.Layout() != d.ctx.Layout() {
		return fmt.Errorf("core: swap to context with different layout")
	}
	if ctx.NumGroups() < d.ctx.NumGroups() {
		return fmt.Errorf("core: swap to context with %d groups, have %d (the catalogue is append-only)",
			ctx.NumGroups(), d.ctx.NumGroups())
	}
	for id := 0; id < d.ctx.NumGroups(); id++ {
		old, _ := d.ctx.Group(id)
		neu, err := ctx.Group(id)
		if err != nil || old.HammingDistance(neu) != 0 {
			return fmt.Errorf("core: swap renames group %d (IDs must be stable)", id)
		}
	}
	d.ctx = ctx
	return nil
}

// Reset clears all runtime state (previous group, actuators, any in-flight
// episodes). Use it between independent segments.
func (d *Detector) Reset() {
	d.prevGroup = NoGroup
	d.prevActs = d.prevActs[:0]
	d.eps = nil
	d.recentActs = make(map[device.ID]int)
	d.dwell = 0
	for i := range d.lastFire {
		d.lastFire[i] = -1
	}
}

// PrevGroup returns the group matched by the previous window, or NoGroup at
// the start of a segment. Exposed for custom checks.
func (d *Detector) PrevGroup() int { return d.prevGroup }

// DwellWindows returns how many consecutive windows the home has spent in
// the previous group. Exposed for custom checks.
func (d *Detector) DwellWindows() int { return d.dwell }

// LastFireWindow returns the window index of the given actuator slot's most
// recent firing, or -1 when it has not fired this segment. Exposed for
// custom checks.
func (d *Detector) LastFireWindow(slot int) int {
	if slot < 0 || slot >= len(d.lastFire) {
		return -1
	}
	return d.lastFire[slot]
}

// Identifying reports whether any identification episode is in progress.
func (d *Detector) Identifying() bool { return len(d.eps) > 0 }

// OpenEpisodes returns the number of identification episodes currently in
// flight (0 or 1 unless MaxFaults > 1).
func (d *Detector) OpenEpisodes() int { return len(d.eps) }

// Process runs one window through DICE and returns what was concluded.
// Windows must be fed in time order.
func (d *Detector) Process(o *window.Observation) (Result, error) {
	res := Result{WindowIndex: o.Index, MainGroup: NoGroup}

	d.clock.start()
	v := d.stateVec
	if err := d.bin.StateSetInto(v, o); err != nil {
		return Result{}, err
	}
	res.Timing.Binarize = d.clock.lap()

	cands := d.ctx.ScanWith(&d.scanScratch, v, d.cfg.CandidateDistance)
	res.Timing.Correlation = d.clock.lap()
	res.MainGroup = cands.Main

	// The ordered check pipeline runs on every window; a window with a
	// finding, or inside an episode, then takes one step of identification
	// (§3.4). One lap covers both, charged to identification inside an
	// episode or when no main group matched, and to transition checking
	// otherwise.
	inEpisode := len(d.eps) > 0
	finding := d.runChecks(CheckInput{Obs: o, Vec: v, Cands: cands})
	if finding != nil || inEpisode {
		d.feed(finding, cands, o, &res)
		d.concludeEpisodes(&res)
	}
	cost := d.clock.lap()
	if inEpisode || cands.Main == NoGroup {
		res.Timing.Identify = cost
	} else {
		res.Timing.Transition = cost
	}

	d.met.windows.Inc()
	if d.clock.sampled {
		d.met.scanSeconds.ObserveDuration(res.Timing.Correlation)
	}
	if cands.Main != NoGroup {
		d.met.scanExact.Inc()
	} else {
		d.met.scanBucket.Inc()
		if cands.MinDistance != NoDistance {
			d.met.scanDistance.Observe(float64(cands.MinDistance))
		}
	}

	d.advance(cands.Main, o)
	return res, nil
}

// openEpisode builds a fresh episode from a finding whose normalized
// suspects are sus. The caller appends it to d.eps and records the opening
// Explain step.
func (d *Detector) openEpisode(f *Finding, sus []device.ID, cands Candidates, o *window.Observation) *episode {
	acts := idSet(o.Actuated)
	var recent []device.ID
	for act, at := range d.recentActs {
		if o.Index-at <= recentActWindows {
			recent = append(recent, act)
		}
	}
	return &episode{
		cause:          f.Cause,
		detectedWindow: o.Index,
		intersection:   sus,
		corroboration:  1,
		missingEffect:  d.lastDiffMissingOnly,
		surplusEffect:  d.lastDiffSurplusOnly,
		openingActs:    acts,
		openingPrev:    d.prevGroup,
		firedActs:      unionIDs(acts, normIDs(recent)),
		trace: &Explain{
			Cause:          f.Cause,
			DetectedWindow: o.Index,
			PrevGroup:      d.prevGroup,
			MainGroup:      cands.Main,
			ProbableGroups: append([]int(nil), cands.Probable...),
			MinDistance:    cands.MinDistance,
			Timing:         f.Timing,
		},
	}
}

// advance rolls the previous-window state forward. The dwell/lastFire
// update matches the trainer's: a repeated known group extends the dwell, a
// hop (or the first known group) restarts it at 1, and an unknown state set
// clears it.
func (d *Detector) advance(mainGroup int, o *window.Observation) {
	switch {
	case mainGroup == NoGroup:
		d.dwell = 0
	case mainGroup == d.prevGroup:
		d.dwell++
	default:
		d.dwell = 1
	}
	d.prevGroup = mainGroup
	d.prevActs = append(d.prevActs[:0], o.Actuated...)
	for _, act := range o.Actuated {
		d.recentActs[act] = o.Index
		if slot, ok := d.ctx.Layout().ActuatorSlot(act); ok {
			d.lastFire[slot] = o.Index
		}
	}
	d.met.episodesOpen.Set(int64(len(d.eps)))
}

// correlationSuspects implements identification for a missing main group:
// diff the live state set against every probable group, prune probable
// groups unreachable from the previous group, and union the sensors owning
// the differing bits.
func (d *Detector) correlationSuspects(v *bitvec.Vec, cands Candidates) []device.ID {
	probable := cands.Probable
	if d.prevGroup != NoGroup && len(probable) > 1 {
		var reachable []int
		for _, g := range probable {
			if d.ctx.G2G().Possible(d.prevGroup, g) {
				reachable = append(reachable, g)
			}
		}
		// Keep the unfiltered list when the filter would leave nothing to
		// diff against.
		if len(reachable) > 0 {
			probable = reachable
		}
	}
	return d.diffSuspects(v, probable)
}

// diffSuspects unions the owning sensors of bits where v differs from the
// given groups, considering only the groups at minimal Hamming distance
// from v: the nearest groups are the best explanations of what the state
// set should have been, and diffing against farther candidates only pads
// the suspect set with unrelated devices.
func (d *Detector) diffSuspects(v *bitvec.Vec, groups []int) []device.ID {
	minDist := -1
	var nearest []int
	for _, gid := range groups {
		g, err := d.ctx.Group(gid)
		if err != nil {
			continue
		}
		dist := v.HammingDistance(g)
		switch {
		case minDist < 0 || dist < minDist:
			minDist = dist
			nearest = nearest[:0]
			nearest = append(nearest, gid)
		case dist == minDist:
			nearest = append(nearest, gid)
		}
	}
	var ids []device.ID
	missingOnly := len(nearest) > 0
	surplusOnly := len(nearest) > 0
	for _, gid := range nearest {
		g, err := d.ctx.Group(gid)
		if err != nil {
			continue
		}
		for _, bit := range v.Diff(g) {
			if v.Get(bit) {
				// The live set has a bit the expected group lacks: surplus
				// activity.
				missingOnly = false
			} else {
				surplusOnly = false
			}
			if id, err := d.bin.DeviceForBit(bit); err == nil {
				ids = append(ids, id)
			}
		}
	}
	d.lastDiffMissingOnly = missingOnly
	d.lastDiffSurplusOnly = surplusOnly
	return normIDs(ids)
}

// feed runs one repetition of the identification loop (§3.4) on a window
// that has a finding f or falls inside an episode. Every episode whose pool
// overlaps the finding's suspects narrows on it. Evidence no open episode
// covers opens a new episode while fewer than MaxFaults (the paper's
// numThre) are open, and at that cap is a stall for every episode, since
// numThre says it cannot be yet another fault. Episodes whose pools nest
// then merge. numThre = 1 is this engine with a cap of one, and differs in
// one rule: evidence that misses its lone episode still counts as
// informative, where with numThre > 1 each episode treats evidence that
// misses it as quiet — in a storm the faults take turns corrupting
// windows, and counting a rival fault's evidence against an episode would
// conclude everything prematurely.
func (d *Detector) feed(f *Finding, cands Candidates, o *window.Observation, res *Result) {
	res.Identifying = true
	if len(d.eps) > 0 {
		acts := idSet(o.Actuated)
		for _, ep := range d.eps {
			ep.length++
			ep.firedActs = unionIDs(ep.firedActs, acts)
		}
	}
	if f == nil {
		for _, ep := range d.eps {
			ep.normalStreak++
		}
		res.Probable = d.probableUnion()
		return
	}
	res.Violation = f.Cause
	d.met.violation(f.Cause)

	sus := idSet(f.Suspects)
	step := ExplainStep{Window: o.Index, Violation: f.Cause, Suspects: f.Suspects}
	fed := false
	for _, ep := range d.eps {
		switch next := interIDs(ep.intersection, sus); {
		case next != nil:
			ep.intersection = next
			fed = true
		case d.cfg.MaxFaults > 1:
			ep.normalStreak++
			continue
		default:
			// numThre = 1: disjoint evidence still informs the lone
			// episode, which stalls below at the cap.
		}
		ep.normalStreak = 0
		ep.corroboration++
		step.Intersection = ep.intersection
		ep.trace.addStep(step)
	}
	switch {
	case fed:
	case len(d.eps) < d.cfg.MaxFaults:
		// A split: evidence about devices no open episode covers.
		if len(d.eps) > 0 {
			d.met.concurrentEps.Inc()
		}
		ep := d.openEpisode(f, sus, cands, o)
		d.eps = append(d.eps, ep)
		step.Intersection = ep.intersection
		ep.trace.addStep(step)
		res.Detected = true
	default:
		// At the cap.
		for _, ep := range d.eps {
			ep.stalls++
		}
	}
	d.mergeEpisodes(o.Index)
	res.Probable = d.probableUnion()
}

// mergeEpisodes folds together episodes whose suspect pools have collapsed
// into one another: when one pool is a subset of another the two episodes
// are explaining the same fault, so the earlier episode absorbs the later
// one, keeping the narrower pool and the combined corroboration.
func (d *Detector) mergeEpisodes(windowIdx int) {
	for i := 0; i < len(d.eps); i++ {
		for j := i + 1; j < len(d.eps); {
			a, b := d.eps[i], d.eps[j]
			if !subsetOf(a.intersection, b.intersection) && !subsetOf(b.intersection, a.intersection) {
				j++
				continue
			}
			if len(b.intersection) < len(a.intersection) {
				a.intersection = b.intersection
			}
			a.corroboration += b.corroboration
			a.stalls = min(a.stalls, b.stalls)
			a.normalStreak = min(a.normalStreak, b.normalStreak)
			a.firedActs = unionIDs(a.firedActs, b.firedActs)
			a.trace.addStep(ExplainStep{
				Window:       windowIdx,
				Violation:    b.cause,
				Suspects:     b.intersection,
				Intersection: a.intersection,
			})
			d.eps = append(d.eps[:j], d.eps[j+1:]...)
		}
	}
}

// probableUnion returns the ascending union of every open episode's pool.
// Built up from nil by unionIDs, it never aliases a pool.
func (d *Detector) probableUnion() []device.ID {
	var u []device.ID
	for _, ep := range d.eps {
		u = unionIDs(u, ep.intersection)
	}
	return u
}

// concludeEpisodes closes every episode that is ready — intersection small
// enough, a weighted device demanding attention, or patience limits hit —
// and appends one Alert per concluded episode to the result.
func (d *Detector) concludeEpisodes(res *Result) {
	keep := d.eps[:0]
	for _, ep := range d.eps {
		alert, done := d.concludeOne(ep, res)
		if !done {
			keep = append(keep, ep)
			continue
		}
		if alert != nil {
			res.Alerts = append(res.Alerts, alert)
		}
	}
	d.eps = keep
	if len(d.eps) == 0 {
		d.eps = nil
	}
	if len(res.Alerts) > 0 {
		res.Alert = res.Alerts[0]
	}
}

// concludeOne decides whether one episode is ready to close and, if so,
// builds its alert (nil when the episode is dismissed without alerting). An
// episode is ready when its pool has narrowed to one device with at least
// the corroboration floor behind it, when a weighted device demands
// attention, or when its patience runs out. The floor is 1 (the opening
// window) with numThre = 1 and minCorroboration with numThre > 1.
func (d *Detector) concludeOne(ep *episode, res *Result) (*Alert, bool) {
	size := len(ep.intersection)
	early := false
	if d.cfg.WeightAlarm > 0 {
		for _, id := range ep.intersection {
			if d.cfg.Weights[id] >= d.cfg.WeightAlarm {
				early = true
				break
			}
		}
	}
	floor := 1
	if d.cfg.MaxFaults > 1 {
		floor = minCorroboration
	}
	done := (size == 1 && ep.corroboration >= floor) || early ||
		ep.stalls >= d.cfg.MaxStalls ||
		ep.normalStreak >= d.cfg.IdentifyGiveUp ||
		ep.length >= d.cfg.MaxIdentifyWindows
	if !done {
		return nil, false
	}
	d.met.episodes.Inc()
	d.met.episodeLen.Observe(float64(res.WindowIndex - ep.detectedWindow + 1))
	d.met.suspects.Observe(float64(size))
	if !early && ep.corroboration < floor {
		// A patience-concluded episode below the floor: a transient (a
		// benign occupancy shift, a splice edge), not a fault. Dismiss
		// without alerting.
		return nil, true
	}
	devices := d.attributeToActuator(ep, copyIDs(ep.intersection))
	if d.cfg.Attest != nil {
		devices = d.cfg.Attest(devices)
		sortIDs(devices)
		if len(devices) == 0 {
			// Every probable device attested healthy: dismiss the episode
			// without an alert.
			return nil, true
		}
	}
	trace := ep.trace
	trace.ReportedWindow = res.WindowIndex
	alert := &Alert{
		Devices:        devices,
		Cause:          ep.cause,
		DetectedWindow: ep.detectedWindow,
		ReportedWindow: res.WindowIndex,
		EarlyWeight:    early && size > 1,
		Explain:        trace,
	}
	d.met.named.Add(int64(len(devices)))
	d.met.alert(ep.cause)
	return alert, true
}

// attributeToActuator re-attributes a "missing effect" anomaly to a silent
// actuator: when every suspect sensor belongs to the trained effect set of
// an actuator that never activated during the episode, the actuator — not
// the sensors dutifully reporting its absence — is the probable faulty
// device. An actuator that did fire during the episode keeps the blame on
// the sensors (its effect reached the home; the sensor misreported it).
func (d *Detector) attributeToActuator(ep *episode, devices []device.ID) []device.ID {
	if len(devices) == 0 {
		return devices
	}
	if ep.cause != CheckCorrelation && ep.cause != CheckG2G {
		return devices
	}
	layout := d.ctx.Layout()
	bestSlot, bestSize := -1, 0
	for slot := 0; slot < layout.NumActuators(); slot++ {
		if d.ctx.ActivationCount(slot) < 5 {
			continue
		}
		id := layout.ActuatorID(slot)
		// Dead: the opening context is one the actuator is known to fire
		// from (G2A expectation), its effect is missing, and it stayed
		// silent — a faulty sensor fails this guard because its actuator
		// fired normally. Spurious: the actuator fired in the very window
		// surplus effect bits appeared without the occupancy bits that
		// accompany a legitimate activation (a legitimate firing lands in
		// a trained group and raises no violation at all).
		dead := ep.missingEffect && !hasID(ep.openingActs, id) &&
			ep.openingPrev != NoGroup && d.ctx.G2A().Possible(ep.openingPrev, slot)
		spurious := ep.surplusEffect && hasID(ep.openingActs, id)
		if !dead && !spurious {
			continue
		}
		effect := d.ctx.EffectDevices(slot, 0.6)
		if !subsetOf(devices, effect) {
			continue
		}
		if bestSlot < 0 || len(effect) < bestSize {
			bestSlot = slot
			bestSize = len(effect)
		}
	}
	if bestSlot < 0 {
		return devices
	}
	return []device.ID{layout.ActuatorID(bestSlot)}
}

// subsetOf reports whether every element of sub is in sorted super.
func subsetOf(sub, super []device.ID) bool {
	j := 0
	for _, s := range sub {
		for j < len(super) && super[j] < s {
			j++
		}
		if j >= len(super) || super[j] != s {
			return false
		}
	}
	return true
}

// hasID reports whether sorted ids contains id.
func hasID(ids []device.ID, id device.ID) bool {
	return subsetOf([]device.ID{id}, ids)
}

// normIDs sorts ids in place and drops duplicates, giving the ascending,
// duplicate-free form every device set in an episode is kept in.
func normIDs(ids []device.ID) []device.ID {
	sortIDs(ids)
	out := ids[:0]
	for _, id := range ids {
		if len(out) == 0 || out[len(out)-1] != id {
			out = append(out, id)
		}
	}
	return out
}

// idSet returns a normalized copy of ids.
func idSet(ids []device.ID) []device.ID {
	return normIDs(copyIDs(ids))
}

// interIDs returns the intersection of two sorted sets, freshly allocated
// and nil when empty.
func interIDs(a, b []device.ID) []device.ID {
	var out []device.ID
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// unionIDs returns the union of two sorted sets: a itself when b adds
// nothing, a fresh slice otherwise.
func unionIDs(a, b []device.ID) []device.ID {
	if subsetOf(b, a) {
		return a
	}
	out := make([]device.ID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
