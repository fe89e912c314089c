package fleet

import (
	"time"

	"dca/internal/core"
	"dca/internal/dcart"
)

// Knobs are the per-request analysis options. Their JSON tags are the
// /analyze request schema: the server's AnalyzeRequest and the
// coordinator's worker request both embed Knobs, so a coordinator forwards
// them verbatim and a sharded analysis runs under exactly the
// configuration a single node would have used.
type Knobs struct {
	// Schedules overrides the number of random permutation schedules
	// (bounded by the node's ceiling; 0 keeps the ceiling).
	Schedules int `json:"schedules,omitempty"`
	// MaxSteps / TimeoutMS tighten the per-execution budgets; values above
	// the node's ceiling are clamped down to it. The server rejects
	// negative values, and timeouts too large to express in nanoseconds,
	// with 400.
	MaxSteps  int64 `json:"max_steps,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache forces a fresh computation.
	NoCache bool `json:"no_cache,omitempty"`
	// NoFootprint disables the footprint fast path.
	NoFootprint bool `json:"no_footprint,omitempty"`
	// NoProve disables the static commutativity prover, so every loop's
	// verdict comes from the dynamic stage.
	NoProve bool `json:"no_prove,omitempty"`
	// NoVM runs the executions on the tree-walking interpreter instead of
	// the bytecode VM. Unlike the CLI's process-wide -no-vm flag, this is
	// per-request: concurrent requests with different settings never
	// interfere.
	NoVM bool `json:"no_vm,omitempty"`
}

// Options maps the knobs onto the core options of a node whose ceilings
// are base (budgets, sandbox limits, cache, trace) and maxSchedules: the
// reverse schedule plus at most maxSchedules random ones, budgets clamped
// down to base's, and no cache under NoCache. A worker and the
// coordinator's local fallback both call it, so they agree on effective
// options.
func (k Knobs) Options(maxSchedules int, base core.Options) core.Options {
	n := k.Schedules
	if n <= 0 || n > maxSchedules {
		n = maxSchedules
	}
	base.Schedules = []dcart.Schedule{dcart.Reverse{}}
	for i := 0; i < n; i++ {
		base.Schedules = append(base.Schedules, dcart.Random{Seed: int64(i + 1)})
	}
	base.MaxSteps = clampBudget(base.MaxSteps, k.MaxSteps)
	base.Timeout = time.Duration(clampBudget(int64(base.Timeout), k.TimeoutMS*int64(time.Millisecond)))
	base.NoFootprint = k.NoFootprint
	base.NoProve = k.NoProve
	base.NoVM = k.NoVM
	if k.NoCache {
		base.Cache = nil
	}
	return base
}

// clampBudget lowers def to req when the request asks for less; a request
// can never exceed the node's ceiling. def <= 0 (unlimited ceiling) adopts
// any requested bound.
func clampBudget(def, req int64) int64 {
	if req <= 0 {
		return def
	}
	if def <= 0 || req < def {
		return req
	}
	return def
}
