package engine_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dca/internal/core"
	"dca/internal/engine"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/obs"
	"dca/internal/sandbox"
	"dca/internal/workloads/plds"
)

// memJournal is an in-memory run journal tier: like internal/journal, Get
// serves only the records recovered from a previous run and Put appends to
// this run's records, without the disk.
type memJournal struct {
	recovered map[string][]byte // read-only
	mu        sync.Mutex
	recs      map[string][]byte
}

// newMemJournal starts a journal that recovered the given records (nil for
// a fresh run).
func newMemJournal(recovered map[string][]byte) *memJournal {
	return &memJournal{recovered: recovered, recs: map[string][]byte{}}
}

func (m *memJournal) Get(key string) ([]byte, bool) {
	data, ok := m.recovered[key]
	return data, ok
}

func (m *memJournal) Put(key string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs[key] = append([]byte(nil), data...)
}

// analyzers are the two paths into the per-loop kernel: the concurrent
// engine and the sequential core.Analyze. The journal tier lives in the
// kernel, so both resume with no path-specific code.
var analyzers = []struct {
	name string
	run  func(prog *ir.Program, opt core.Options) (*core.Report, error)
}{
	{"engine", func(prog *ir.Program, opt core.Options) (*core.Report, error) {
		return engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Workers: 4})
	}},
	{"sequential", core.Analyze},
}

// assertSameVerdicts is assertIdentical minus Provenance: a resumed loop
// legitimately reports "journaled" where the fresh run said "computed";
// everything the user sees — the report text and every verdict field —
// must still match exactly.
func assertSameVerdicts(t *testing.T, label string, fresh, resumed *core.Report) {
	t.Helper()
	if fresh.String() != resumed.String() {
		t.Fatalf("%s: reports differ\n--- fresh ---\n%s--- resumed ---\n%s", label, fresh, resumed)
	}
	if len(fresh.Loops) != len(resumed.Loops) {
		t.Fatalf("%s: loop counts differ: %d vs %d", label, len(fresh.Loops), len(resumed.Loops))
	}
	for i := range fresh.Loops {
		a, b := *fresh.Loops[i], *resumed.Loops[i]
		a.Elapsed, b.Elapsed = 0, 0
		a.Replays, b.Replays = 0, 0
		a.Provenance, b.Provenance = "", ""
		a.DurStatic, b.DurStatic = 0, 0
		a.DurGolden, b.DurGolden = 0, 0
		a.DurReplay, b.DurReplay = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: loop %d differs:\n  fresh:   %+v\n  resumed: %+v", label, i, a, b)
		}
	}
}

// TestJournalResumeIdentity: a run that journals every verdict, resumed
// from those records, must produce a report identical to the fresh run —
// with every loop served from the journal and zero replays performed — on
// the concurrent engine and the sequential path alike.
func TestJournalResumeIdentity(t *testing.T) {
	prog, err := plds.ByName("treeadd").Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range analyzers {
		t.Run(a.name, func(t *testing.T) {
			opt := testOptions()
			j := newMemJournal(nil)
			opt.Journal = j
			fresh, err := a.run(prog, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(j.recs) != len(fresh.Loops) {
				t.Fatalf("journaled %d records for %d loops", len(j.recs), len(fresh.Loops))
			}

			var tr obs.Collector
			ropt := testOptions()
			ropt.Trace = &tr
			ropt.Journal = newMemJournal(j.recs)
			resumed, err := a.run(prog, ropt)
			if err != nil {
				t.Fatal(err)
			}
			assertSameVerdicts(t, "journal resume", fresh, resumed)
			if got := resumed.ResumedLoops(); got != len(fresh.Loops) {
				t.Fatalf("ResumedLoops = %d, want %d", got, len(fresh.Loops))
			}
			for _, l := range resumed.Loops {
				if l.Provenance != core.ProvenanceJournaled {
					t.Fatalf("loop %s/%d provenance %q, want journaled", l.Fn, l.Index, l.Provenance)
				}
				if l.Replays != 0 {
					t.Fatalf("loop %s/%d performed %d replays despite journal hit", l.Fn, l.Index, l.Replays)
				}
			}
			hits, verdicts := 0, 0
			for _, ev := range tr.Events() {
				switch {
				case ev.Stage == obs.StageJournal && ev.Outcome == obs.OutcomeHit:
					hits++
				case ev.Stage == obs.StageVerdict:
					verdicts++
					if ev.Provenance != core.ProvenanceJournaled {
						t.Fatalf("verdict event provenance %q, want journaled", ev.Provenance)
					}
				case ev.Stage == obs.StageGolden || ev.Stage == obs.StageReplay:
					t.Fatalf("resumed run executed a %s stage", ev.Stage)
				}
			}
			if hits != len(fresh.Loops) || verdicts != len(fresh.Loops) {
				t.Fatalf("trace: %d journal hits, %d verdicts, want %d each", hits, verdicts, len(fresh.Loops))
			}
		})
	}
}

// TestJournalResumePartial: loops missing from the resume map — the crash
// case — run fresh and are re-journaled; resumed loops are not.
func TestJournalResumePartial(t *testing.T) {
	prog, err := irbuild.Compile("prescreen.mc", prescreenSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()

	j := newMemJournal(nil)
	opt.Journal = j
	fresh, err := engine.Analyze(context.Background(), prog,
		engine.Options{Core: opt, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Loops) < 3 {
		t.Fatalf("want >= 3 loops, got %d", len(fresh.Loops))
	}
	// Simulate a crash after the first verdict: keep one record.
	keep := core.JournalKey(fresh.Loops[0].Fn, fresh.Loops[0].Index)
	partial := map[string][]byte{keep: j.recs[keep]}

	j2 := newMemJournal(partial)
	opt.Journal = j2
	resumed, err := engine.Analyze(context.Background(), prog,
		engine.Options{Core: opt, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertSameVerdicts(t, "partial resume", fresh, resumed)
	if got := resumed.ResumedLoops(); got != 1 {
		t.Fatalf("ResumedLoops = %d, want 1", got)
	}
	// The continuation journals only what it computed.
	if _, ok := j2.recs[keep]; ok {
		t.Fatal("resumed loop was re-journaled")
	}
	if want := len(fresh.Loops) - 1; len(j2.recs) != want {
		t.Fatalf("continuation journaled %d records, want %d", len(j2.recs), want)
	}
}

// TestJournalResumeCorruptRecord: a resume record that does not decode
// falls through to a fresh analysis — corruption degrades to
// recomputation, never to a wrong verdict.
func TestJournalResumeCorruptRecord(t *testing.T) {
	prog, err := irbuild.Compile("prescreen.mc", prescreenSrc)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	fresh, err := engine.Analyze(context.Background(), prog, engine.Options{Core: opt, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{}
	for _, l := range fresh.Loops {
		bad[core.JournalKey(l.Fn, l.Index)] = []byte(`{"verdict": 9999}`)
	}
	opt.Journal = newMemJournal(bad)
	resumed, err := engine.Analyze(context.Background(), prog,
		engine.Options{Core: opt, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "corrupt resume", fresh, resumed)
	if got := resumed.ResumedLoops(); got != 0 {
		t.Fatalf("ResumedLoops = %d, want 0 for corrupt records", got)
	}
}

// TestJournalBypassedUnderInjection: armed fault injection must bypass the
// journal in both directions, like the verdict cache — injected traps are
// harness behaviour, not reusable analysis results.
func TestJournalBypassedUnderInjection(t *testing.T) {
	prog, err := plds.ByName("treeadd").Compile()
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Inject = sandbox.Inject{AtIntrinsic: 40, Kind: sandbox.Fault}

	// A poisoned journal: if injection consulted it, verdicts would skew.
	copt := testOptions()
	poison := newMemJournal(nil)
	copt.Journal = poison
	if _, err := engine.Analyze(context.Background(), prog, engine.Options{Core: copt, Workers: 2}); err != nil {
		t.Fatal(err)
	}

	j := newMemJournal(poison.recs)
	opt.Journal = j
	injected, err := engine.Analyze(context.Background(), prog,
		engine.Options{Core: opt, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(j.recs) != 0 {
		t.Fatalf("injection run journaled %d records", len(j.recs))
	}
	if got := injected.ResumedLoops(); got != 0 {
		t.Fatalf("injection run resumed %d loops", got)
	}
}
