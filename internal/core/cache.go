package core

import (
	"encoding/json"
	"strconv"

	"dca/internal/fingerprint"
	"dca/internal/instrument"
	"dca/internal/ir"
	"dca/internal/sandbox"
)

// CacheRecordVersion is the schema version of the serialized verdict
// records the analysis stores in a VerdictCache. Callers opening a
// persistent cache (internal/cache) pass it as the store's application
// version, so a record-format change invalidates every stale entry instead
// of decoding it. The fingerprint schema needs no version here: it is
// hashed into every key (fingerprint.Version), so key schemas can never
// alias.
const CacheRecordVersion uint32 = 2

// Verdict provenance values. Every analyzed loop records whether its
// outcome was computed by running the dynamic stage or served from the
// verdict cache.
const (
	// ProvenanceComputed: the verdict was produced by running the analysis
	// (including static-stage short circuits, which always run fresh).
	ProvenanceComputed = "computed"
	// ProvenanceCached: the dynamic-stage outcome was served from the
	// verdict cache; no golden run or replay executed.
	ProvenanceCached = "cached"
	// ProvenanceJournaled: the whole loop outcome was served from the run
	// journal tier (Options.Journal, `dca analyze -resume`); neither the
	// static nor the dynamic stage ran in this process.
	ProvenanceJournaled = "journaled"
	// ProvenanceFootprint: the golden run proved the loop's iterations
	// touch pairwise-disjoint heap cells, so the Commutative verdict was
	// issued without running any schedule replay.
	ProvenanceFootprint = "footprint-proved"
	// ProvenanceProved: the static commutativity prover (internal/prove)
	// closed a symbolic proof, so the Commutative verdict was issued after
	// the golden run (the coverage witness) without any schedule replay.
	ProvenanceProved = "static-proved"
)

// VerdictCache is a verdict store the per-loop kernel consults. Values are
// serialized verdict records (CacheRecordVersion); both methods must be
// safe for concurrent use. It backs two tiers:
//
//   - Options.Cache, consulted before the dynamic stage, keyed by
//     loop-analysis fingerprints (internal/fingerprint). internal/cache
//     provides the two-tier production implementation.
//   - Options.Journal, consulted before everything else, keyed by
//     JournalKey within one run (RunKey). internal/journal provides the
//     write-ahead production implementation.
type VerdictCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte)
}

// cachedVerdict is the serialized dynamic-stage outcome. Only fields the
// dynamic stage determines are stored: identity fields (Fn, ID, Pos, ...)
// are recomputed from the program on every run, and Provenance, Replays,
// and Elapsed describe the serving run, not the verdict.
type cachedVerdict struct {
	Verdict         Verdict `json:"verdict"`
	Reason          string  `json:"reason,omitempty"`
	Invocations     int     `json:"invocations"`
	Iterations      int64   `json:"iterations"`
	SchedulesTested int     `json:"schedules_tested"`
	Retries         int     `json:"retries"`
	TrapKind        string  `json:"trap_kind,omitempty"`
	// Replay-reduction counters: how the verdict's evidence was bounded.
	// A footprint-proved record keeps its SkippedFootprint count so warm
	// runs still report how much replay work the proof avoided; likewise a
	// static-proved record keeps SkippedProve (the skipped replays).
	SkippedFootprint int `json:"skipped_footprint,omitempty"`
	SkippedProve     int `json:"skipped_prove,omitempty"`
}

// fingerprintInputs is the one mapping from analysis options to the
// fingerprinted configuration; loop keys and run keys both use it.
func (o *Options) fingerprintInputs() fingerprint.Inputs {
	return fingerprint.Inputs{
		Schedules:      o.Schedules,
		Limits:         o.Limits(),
		Retries:        o.Retries,
		DebugSnapshots: o.DebugSnapshots,
		NoFootprint:    o.NoFootprint,
		NoProve:        o.NoProve,
	}
}

// loopKey fingerprints one loop analysis under the active options.
func loopKey(prog *ir.Program, fnName string, loopIndex int, inst *instrument.Instrumented, opt *Options) string {
	return fingerprint.Loop(prog, fnName, loopIndex, inst, opt.fingerprintInputs()).String()
}

// RunKey fingerprints a whole analysis run — the program plus every option
// that can reach a verdict, after defaults are filled in — and names the
// run journal a resume may replay. Two runs with equal keys analyze the
// same loops under the same configuration, so one's journaled verdicts are
// valid answers in the other.
func RunKey(prog *ir.Program, opt Options) string {
	opt.normalize()
	return fingerprint.Run(prog, opt.fingerprintInputs()).String()
}

// JournalKey is a loop's key in the run journal tier: the run key already
// names the program and configuration, so (fn, index) identifies the loop.
func JournalKey(fn string, index int) string {
	return fn + "#" + strconv.Itoa(index)
}

// encodeCachedVerdict serializes a loop outcome in the verdict-record
// schema both tiers (Options.Cache and Options.Journal) store.
func encodeCachedVerdict(res *LoopResult) []byte {
	data, err := json.Marshal(cachedVerdict{
		Verdict:          res.Verdict,
		Reason:           res.Reason,
		Invocations:      res.Invocations,
		Iterations:       res.Iterations,
		SchedulesTested:  res.SchedulesTested,
		Retries:          res.Retries,
		TrapKind:         res.TrapKind,
		SkippedFootprint: res.SkippedFootprint,
		SkippedProve:     res.SkippedProve,
	})
	if err != nil {
		return nil // never happens for this struct; a nil record is simply not stored
	}
	return data
}

// decodeCachedVerdict restores a stored outcome into res. It returns false
// — and leaves res usable for a fresh computation — when the record does
// not decode to a plausible verdict, so a corrupted or stale cache entry
// degrades to a miss rather than a wrong result.
func decodeCachedVerdict(data []byte, res *LoopResult) bool {
	var cv cachedVerdict
	if err := json.Unmarshal(data, &cv); err != nil {
		return false
	}
	if cv.Verdict < 0 || int(cv.Verdict) >= len(verdictNames) {
		return false
	}
	if cv.Verdict == Cancelled {
		// No writer stores Cancelled (a statement about a dead context, not
		// the program); a record claiming it is corrupt or forged.
		return false
	}
	res.Verdict = cv.Verdict
	res.Reason = cv.Reason
	res.Invocations = cv.Invocations
	res.Iterations = cv.Iterations
	res.SchedulesTested = cv.SchedulesTested
	res.Retries = cv.Retries
	res.TrapKind = cv.TrapKind
	res.SkippedFootprint = cv.SkippedFootprint
	res.SkippedProve = cv.SkippedProve
	return true
}

// cacheableVerdict reports whether a computed outcome may be stored.
// Timeout-trapped outcomes depend on wall-clock speed, panic-trapped ones
// on analysis bugs, and cancelled ones on the caller's context — none is a
// deterministic function of the fingerprinted inputs, so they are
// recomputed every run. Everything else (commutative, non-commutative,
// not-executed, fault-failed, and budget-exhausted outcomes) is
// deterministic under the interpreter.
func cacheableVerdict(res *LoopResult) bool {
	if res.Verdict == Cancelled {
		return false
	}
	switch res.TrapKind {
	case sandbox.Timeout.String(), sandbox.Panic.String():
		return false
	}
	return true
}
