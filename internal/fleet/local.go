package fleet

import (
	"context"
	"sync"
	"time"

	"dca/internal/core"
	"dca/internal/engine"
	"dca/internal/ir"
	"dca/internal/obs"
)

// LocalAnalyzer analyzes a batch of loops in-process — the coordinator's
// graceful-degradation path when no live worker remains. It returns one
// row per requested loop with provenance preserved exactly as a worker
// would have reported it (computed, cached, proved…), so fallback rows
// merge indistinguishably from dispatched ones. onLoop, when non-nil,
// receives every row as it completes.
type LocalAnalyzer func(ctx context.Context, prog *ir.Program, knobs Knobs, refs []LoopRef, onLoop func(core.LoopJSON)) (map[LoopRef]core.LoopJSON, error)

// LocalConfig mirrors a worker's execution ceilings for the in-process
// fallback, so a loop analyzed locally runs under exactly the
// configuration its ring owner would have used — which is what keeps the
// degraded report byte-identical to a healthy fleet's.
type LocalConfig struct {
	// Pool shares a worker budget with the embedding server; nil runs on
	// Workers dedicated goroutines (<= 0 means GOMAXPROCS).
	Pool    *engine.Pool
	Workers int
	// Schedules is the schedule-count ceiling (<= 0 means 3, the server
	// default).
	Schedules int
	// MaxSteps / Timeout / MaxHeapObjects / MaxOutput / Retries are the
	// sandbox ceilings, with the same zero-value semantics as
	// server.Config.
	MaxSteps       int64
	Timeout        time.Duration
	MaxHeapObjects int64
	MaxOutput      int64
	Retries        int
	// Cache, when non-nil, serves and stores verdicts exactly like a
	// worker's local tier.
	Cache core.VerdictCache
	// Trace, when non-nil, receives the fallback analyses' trace events.
	Trace obs.Sink
}

// NewLocalAnalyzer builds the engine-backed fallback over lc.
func NewLocalAnalyzer(lc LocalConfig) LocalAnalyzer {
	if lc.Schedules <= 0 {
		lc.Schedules = 3
	}
	if lc.Timeout <= 0 {
		lc.Timeout = 30 * time.Second
	}
	return func(ctx context.Context, prog *ir.Program, knobs Knobs, refs []LoopRef, onLoop func(core.LoopJSON)) (map[LoopRef]core.LoopJSON, error) {
		copt := knobs.Options(lc.Schedules, core.Options{
			MaxSteps:       lc.MaxSteps,
			Timeout:        lc.Timeout,
			MaxHeapObjects: lc.MaxHeapObjects,
			MaxOutput:      lc.MaxOutput,
			Retries:        lc.Retries,
			Cache:          lc.Cache,
			Trace:          lc.Trace,
		})
		only := make(map[engine.LoopKey]bool, len(refs))
		for _, ref := range refs {
			only[engine.LoopKey{Fn: ref.Fn, Index: ref.Index}] = true
		}
		var mu sync.Mutex
		rows := make(map[LoopRef]core.LoopJSON, len(refs))
		eopt := engine.Options{
			Core:    copt,
			Pool:    lc.Pool,
			Workers: lc.Workers,
			Only:    only,
			OnLoop: func(res *core.LoopResult) {
				lj := res.JSON()
				mu.Lock()
				rows[LoopRef{Fn: lj.Fn, Index: lj.Index}] = lj
				mu.Unlock()
				if onLoop != nil {
					onLoop(lj)
				}
			},
		}
		if _, err := engine.Analyze(ctx, prog, eopt); err != nil {
			return nil, err
		}
		return rows, nil
	}
}
