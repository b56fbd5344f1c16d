package gateway

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wal"
)

// goldenCheckpoint was written by the gateway at commit 415006c, the last
// one that still read four checkpoint schemas, in the middle of the
// stormAfternoon scenario: the gateway of goldenOpts with a WAL attached
// (SyncNever), fed through stormUntilTwoOpen, with the dedup entries of two
// GET /stats exchanges through ServeCoAP, saved by WriteCheckpoint of
// Front.Checkpoint. It carries both open episodes with their traces, the
// adapter's context pin and ledger, dedup entries and a WALSeq.
const goldenCheckpoint = "testdata/storm-v4.ckpt"

// goldenOpts is the gateway the golden file was written by: two concurrent
// identification episodes and online adaptation, so every checkpoint pins
// its context version.
func goldenOpts(extra ...Option) []Option {
	return append([]Option{WithConfig(core.Config{MaxFaults: 2}), WithAdaptation()}, extra...)
}

// stormUntilTwoOpen ingests evts one by one until two identification
// episodes are open at once and returns how many events it ingested.
func stormUntilTwoOpen(t *testing.T, gw *Gateway, evts []event.Event) int {
	t.Helper()
	for i, e := range evts {
		if err := gw.Ingest(e); err != nil {
			t.Fatal(err)
		}
		if gw.OpenEpisodes() == 2 {
			return i + 1
		}
	}
	t.Fatal("storm never held two episodes open at once")
	return 0
}

// TestGoldenCheckpointResume loads a checkpoint written before the format
// was narrowed to one schema. The file must decode, re-encode to the same
// bytes (less the mirrored single-episode field this build no longer
// writes), match what this build exports at the same instant, and resume
// the storm bit-identically to an uninterrupted run.
func TestGoldenCheckpointResume(t *testing.T) {
	h, ctx := trainedHome(t)
	evts := stormAfternoon(t, h, 6)

	ref, err := New(ctx, goldenOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evts {
		if err := ref.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.AdvanceTo(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	refAlerts := drainAlerts(ref)

	// This build's own run up to the instant the file was written.
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	gw1, err := New(ctx, goldenOpts(WithWAL(w))...)
	if err != nil {
		t.Fatal(err)
	}
	split := stormUntilTwoOpen(t, gw1, evts)
	alerts := drainAlerts(gw1)

	data, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Detector.Episodes) != 2 || cp.Context == nil || cp.Adapter == nil || len(cp.Dedup) == 0 || cp.WALSeq == 0 {
		t.Fatalf("golden file lacks what it should cover: %d episodes, context pin %t, adapter %t, %d dedup entries, WALSeq %d",
			len(cp.Detector.Episodes), cp.Context != nil, cp.Adapter != nil, len(cp.Dedup), cp.WALSeq)
	}

	// Re-encoding reproduces the file byte for byte, except that the first
	// episode is no longer mirrored into the single-episode field.
	mirror, err := json.Marshal(cp.Detector.Episodes[0])
	if err != nil {
		t.Fatal(err)
	}
	mirror = append(append([]byte(`"episode":`), mirror...), ',')
	if !bytes.Contains(data, mirror) {
		t.Fatal("golden file has no mirrored single-episode field")
	}
	want := bytes.Replace(data[12:], mirror, nil, 1)
	enc, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc[12:], want) {
		t.Errorf("re-encoded golden checkpoint differs:\n file:    %s\n encoded: %s", want, enc[12:])
	}

	// This build exports the same state at the same instant; only the save
	// time and the CoAP front's dedup entries are not gateway state.
	mine := gw1.ExportCheckpoint()
	mine.SavedAtUnix, mine.Dedup = cp.SavedAtUnix, cp.Dedup
	mineEnc, err := EncodeCheckpoint(mine)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mineEnc, enc) {
		t.Errorf("this build's checkpoint at the split differs from the golden file:\n golden: %s\n mine:   %s", enc[12:], mineEnc[12:])
	}

	gw2, err := New(ctx, goldenOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := gw2.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	for _, e := range evts[split:] {
		if err := gw2.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw2.AdvanceTo(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	alerts = append(alerts, drainAlerts(gw2)...)
	refJSON, err := json.Marshal(refAlerts)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(alerts)
	if err != nil {
		t.Fatal(err)
	}
	if len(refAlerts) == 0 || !bytes.Equal(refJSON, gotJSON) {
		t.Errorf("alerts diverged across the golden restore:\n reference: %s\n restored:  %s", refJSON, gotJSON)
	}
	if rs, gs := ref.Stats(), gw2.Stats(); rs != gs {
		t.Errorf("stats diverged across the golden restore:\n reference: %+v\n restored:  %+v", rs, gs)
	}
	if ri, gi := ref.ContextInfo(), gw2.ContextInfo(); ri != gi {
		t.Errorf("context version diverged across the golden restore:\n reference: %+v\n restored:  %+v", ri, gi)
	}
}
