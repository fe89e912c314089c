package core_test

import (
	"path/filepath"
	"testing"

	"dca/internal/chaos"
	"dca/internal/core"
	"dca/internal/irbuild"
	"dca/internal/journal"
	"dca/internal/obs"
)

// journalSrc has five loops, so a journal that dies at its third record
// still has loops left to drop.
const journalSrc = `
func main() {
	var a []int = new [16]int;
	for (var i int = 0; i < 16; i++) { a[i] = i * 3; }
	var s int = 0;
	for (var i int = 0; i < 16; i++) { s = s + a[i]; }
	for (var i int = 0; i < 16; i++) { a[i] = a[i] + 1; }
	var p int = 1;
	for (var i int = 1; i < 8; i++) { p = p * 2; }
	for (var i int = 0; i < 16; i++) { s = s + a[i]; }
	print(s);
	print(p);
}`

// TestJournalWriteFaultReportedOnce: a journal whose disk dies mid-run
// reports exactly one StageJournal error event — one
// dca_journal_append_errors_total increment — however many loops finish
// after the fault, and the analysis itself completes unharmed.
func TestJournalWriteFaultReportedOnce(t *testing.T) {
	prog, err := irbuild.Compile("journal.mc", journalSrc)
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.Collector
	metrics := obs.NewAnalysisMetrics(obs.NewRegistry())
	sink := obs.Multi{&tr, metrics}

	// Open, truncate, header write and header sync are operations 1-4;
	// with SyncEvery 1 each record is a write and a sync, so operation 9 is
	// the third record's write. The disk stays dead after it.
	fsys := chaos.NewFaulty(chaos.OS{}, chaos.Plan{FailAt: 9, Kind: chaos.EIO, Sticky: true})
	j, _, err := journal.Open(filepath.Join(t.TempDir(), "run.wal"), core.RunKey(prog, core.Options{}),
		journal.Options{Version: core.CacheRecordVersion, SyncEvery: 1, FS: fsys, Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	rep, err := core.Analyze(prog, core.Options{Journal: j, Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 5 {
		t.Fatalf("analyzed %d loops, want 5", len(rep.Loops))
	}
	for _, l := range rep.Loops {
		if l.Provenance == core.ProvenanceJournaled || l.Verdict == core.Failed {
			t.Errorf("loop %s: %s (%s), provenance %s", l.ID, l.Verdict, l.Reason, l.Provenance)
		}
	}
	if j.Err() == nil || j.Appended() != 2 {
		t.Fatalf("journal appended %d records (err %v), want 2 before the fault", j.Appended(), j.Err())
	}
	errs := 0
	for _, ev := range tr.Events() {
		if ev.Stage == obs.StageJournal && ev.Outcome == obs.OutcomeError {
			errs++
		}
	}
	if errs != 1 {
		t.Errorf("%d journal error events, want 1", errs)
	}
	if got := metrics.JournalErrors.Value(); got != 1 {
		t.Errorf("dca_journal_append_errors_total = %d, want 1", got)
	}
}
