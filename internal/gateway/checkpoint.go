package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/coap"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/wal"
	"repro/internal/window"
)

// CheckpointVersion is the checkpoint schema this build reads and writes.
// A file of any other version is rejected rather than restored.
const CheckpointVersion = 4

// Checkpoint is the crash-safe persisted runtime state of a gateway: every
// piece of state the transition check and window builder carry between
// windows, plus the counters and the CoAP dedup cache. A gateway restored
// from a checkpoint resumes the stream mid-window — same previous group,
// same partial window, same in-flight identification episode — so a restart
// neither raises a spurious violation nor double-ingests a retransmitted
// report.
type Checkpoint struct {
	// V is the schema version, always CheckpointVersion.
	V int `json:"v"`
	// Home is the tenant this checkpoint belongs to. Empty for a
	// single-home gateway; a hub stamps its tenant ID so a checkpoint
	// directory is self-describing and a file restored into the wrong
	// tenant is rejected.
	Home        string              `json:"home,omitempty"`
	SavedAtUnix int64               `json:"saved_at_unix"`
	HorizonMS   int64               `json:"horizon_ms"`
	StreamNowMS int64               `json:"stream_now_ms"`
	Stats       Stats               `json:"stats"`
	Detector    core.DetectorState  `json:"detector"`
	Builder     window.BuilderState `json:"builder"`
	LastSeenMS  map[device.ID]int64 `json:"last_seen_ms,omitempty"`
	Dark        []device.ID         `json:"dark,omitempty"`
	// Dedup carries the CoAP server's completed exchanges so retransmitted
	// pre-crash requests keep being absorbed after the restart (the dedup
	// cache high-water mark travels with the state it protects).
	Dedup []coap.DedupEntry `json:"dedup,omitempty"`
	// WALSeq is the sequence number of the last WAL op this checkpoint
	// covers: replay after restore skips everything at or below it, and a
	// successful checkpoint write lets the owner truncate segments it
	// covers. Zero when no WAL was attached.
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// Context pins the context version the detector state refers to,
	// carrying the full version payload so a restore can rebuild the
	// detector on exactly that version — including rolling back to an
	// earlier epoch after a bad adaptation. Nil for non-adaptive gateways,
	// whose context is immutable and supplied at construction. Adapter is
	// the matching candidate ledger.
	Context *ContextCheckpoint `json:"context,omitempty"`
	Adapter *core.AdapterState `json:"adapter,omitempty"`
}

// ContextCheckpoint is the versioned-context pin inside a checkpoint: the
// epoch and hash chain identify the version, Data is the full DICECKS1
// context envelope (Context.Save form) so restore needs nothing but the
// layout.
type ContextCheckpoint struct {
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
	Parent      string `json:"parent,omitempty"`
	Data        []byte `json:"data"`
}

// ExportCheckpoint snapshots the gateway's runtime state. The CoAP dedup
// cache is added by Front.Checkpoint; a bare gateway leaves it empty.
func (g *Gateway) ExportCheckpoint() *Checkpoint {
	g.mu.Lock()
	defer g.mu.Unlock()
	cp := &Checkpoint{
		V:           CheckpointVersion,
		SavedAtUnix: time.Now().Unix(),
		HorizonMS:   g.horizon.Milliseconds(),
		StreamNowMS: g.streamNow.Milliseconds(),
		Stats:       g.statsLocked(),
		Detector:    g.det.ExportState(),
		Builder:     g.builder.ExportState(),
		WALSeq:      g.walSeq,
	}
	if len(g.liveIDs) > 0 {
		cp.LastSeenMS = make(map[device.ID]int64, len(g.liveIDs))
	}
	for _, id := range g.liveIDs {
		cp.LastSeenMS[id] = g.lastSeen.get(id).Milliseconds()
		if g.dark[id] {
			cp.Dark = append(cp.Dark, id)
		}
	}
	if g.adapter != nil {
		ctx := g.det.Context()
		var buf bytes.Buffer
		if err := ctx.Save(&buf); err == nil {
			cp.Context = &ContextCheckpoint{
				Epoch:       ctx.Epoch(),
				Fingerprint: ctx.Fingerprint(),
				Parent:      ctx.ParentFingerprint(),
				Data:        buf.Bytes(),
			}
		}
		cp.Adapter = g.adapter.ExportState()
	}
	return cp
}

// RestoreCheckpoint replaces the gateway's runtime state with a snapshot
// of schema CheckpointVersion; any other version is rejected. The gateway
// must have been built against the same trained context (the detector and
// builder validate group and layout references).
func (g *Gateway) RestoreCheckpoint(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("gateway: nil checkpoint")
	}
	if cp.V != CheckpointVersion {
		return fmt.Errorf("gateway: checkpoint version %d, want %d", cp.V, CheckpointVersion)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if cp.Context != nil {
		if err := g.restoreContextLocked(cp.Context, cp.Adapter); err != nil {
			return err
		}
	}
	if err := g.det.RestoreState(cp.Detector); err != nil {
		return err
	}
	if err := g.builder.RestoreState(cp.Builder); err != nil {
		return err
	}
	// Counter.Store exists exactly for this path: the restored process
	// resumes the cumulative series where the crashed one left off.
	// DarkDevices is derived from the dark set below, not restored.
	g.met.events.Store(cp.Stats.Events)
	g.met.windows.Store(cp.Stats.Windows)
	g.met.violations.Store(cp.Stats.Violations)
	g.met.alerts.Store(cp.Stats.Alerts)
	g.met.alertsDropped.Store(cp.Stats.AlertsDropped)
	g.met.liveness.Store(cp.Stats.LivenessAlerts)
	g.horizon = time.Duration(cp.HorizonMS) * time.Millisecond
	g.streamNow = time.Duration(cp.StreamNowMS) * time.Millisecond
	g.lastSeen = newSeenTable(g.reg.Len())
	g.liveIDs = make([]device.ID, 0, len(cp.LastSeenMS))
	for id, ms := range cp.LastSeenMS {
		g.lastSeen.set(id, time.Duration(ms)*time.Millisecond)
		g.liveIDs = append(g.liveIDs, id)
	}
	slices.Sort(g.liveIDs)
	g.dark = make(map[device.ID]bool, len(cp.Dark))
	for _, id := range cp.Dark {
		g.dark[id] = true
	}
	g.met.dark.Set(int64(len(g.dark)))
	g.walSeq = cp.WALSeq
	// Arm the liveness rebase: if the first post-restore clock movement
	// jumps past the silence threshold, the gap was downtime, and last-seen
	// stamps shift rather than every device going dark (see
	// observeClockLocked). WAL replay does not consume the flag.
	g.rebasePending = true
	return nil
}

// restoreContextLocked rebuilds the detector (and the adapter, when
// adaptation is on) around the context version pinned in a checkpoint.
// Restoring to an epoch below the current one is a rollback — the repair
// path for a bad adaptation — and is counted as such.
func (g *Gateway) restoreContextLocked(cc *ContextCheckpoint, ast *core.AdapterState) error {
	if len(cc.Data) == 0 {
		return fmt.Errorf("gateway: checkpoint context pin has no payload")
	}
	cur := g.det.Context()
	ctx, err := core.LoadContext(bytes.NewReader(cc.Data), cur.Layout())
	if err != nil {
		return fmt.Errorf("gateway: checkpoint context: %w", err)
	}
	if ctx.Fingerprint() != cc.Fingerprint || ctx.Epoch() != cc.Epoch {
		return fmt.Errorf("%w: context payload is epoch %d (%s), pin says epoch %d (%s)",
			ErrCorruptCheckpoint, ctx.Epoch(), ctx.Fingerprint(), cc.Epoch, cc.Fingerprint)
	}
	if ctx.Fingerprint() != cur.Fingerprint() {
		det, err := core.New(ctx, g.detOpts...)
		if err != nil {
			return err
		}
		if ctx.Epoch() < cur.Epoch() {
			g.met.ctxRollbacks.Inc()
		}
		g.det = det
	}
	if g.adapt {
		adapter, err := core.NewAdapter(g.det.Context(), g.adaptOpts...)
		if err != nil {
			return err
		}
		if ast != nil {
			if err := adapter.RestoreState(ast); err != nil {
				return err
			}
		}
		g.adapter = adapter
	}
	return nil
}

// ErrCorruptCheckpoint marks checkpoint bytes that are not an intact
// DICECKS1 envelope — short, missing the magic, or failing the CRC: a torn
// write or bit rot, not a schema problem. Callers should treat it as "no
// checkpoint" (cold start + WAL replay) rather than a fatal restore error:
// the file is evidence of damage, and refusing to start would turn one bad
// sector into an outage.
var ErrCorruptCheckpoint = errors.New("gateway: corrupt checkpoint")

// EncodeCheckpoint renders a checkpoint as its DICECKS1 envelope bytes
// (wal.SealEnvelope around the JSON) — the same format WriteCheckpoint
// persists, as an in-memory value a handoff can ship between nodes.
// DecodeCheckpoint verifies and reverses it.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("gateway: checkpoint encode: %w", err)
	}
	return wal.SealEnvelope(payload), nil
}

// DecodeCheckpoint parses envelope bytes produced by EncodeCheckpoint (or
// read whole from a WriteCheckpoint file). Damage to any byte reports
// ErrCorruptCheckpoint; RestoreCheckpoint checks the schema version.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	payload, err := wal.OpenEnvelope(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		return nil, fmt.Errorf("gateway: parse checkpoint: %w", err)
	}
	return &cp, nil
}

// WriteCheckpoint atomically persists a checkpoint: write to a temp file in
// the same directory, fsync, rename over the target, fsync the directory.
// A crash mid-write leaves the previous checkpoint intact; readers never
// observe a torn file. The payload is wrapped in a checksummed envelope so
// damage that slips past the rename discipline (bit rot, torn sectors) is
// detected at read time instead of restoring garbage.
func WriteCheckpoint(path string, cp *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("gateway: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	env, err := EncodeCheckpoint(cp)
	if err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		return fmt.Errorf("gateway: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("gateway: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("gateway: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("gateway: checkpoint rename: %w", err)
	}
	// POSIX durability contract: fsync on the temp file persists its
	// contents, but the rename lives in the directory, and only an fsync of
	// the directory persists that. Without it a power failure can roll the
	// name back to the old file — or to nothing.
	if err := wal.SyncDir(dir); err != nil {
		return fmt.Errorf("gateway: checkpoint dir sync: %w", err)
	}
	return nil
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint, with
// DecodeCheckpoint's checks (damage reports ErrCorruptCheckpoint).
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gateway: read checkpoint: %w", err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("gateway: checkpoint %s: %w", path, err)
	}
	return cp, nil
}
