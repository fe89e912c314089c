package main

import (
	"context"
	"fmt"
	"sync"

	"dca/internal/bench"
	"dca/internal/cache"
	"dca/internal/cfg"
	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/depprof"
	"dca/internal/discopop"
	"dca/internal/engine"
	"dca/internal/icc"
	"dca/internal/idioms"
	"dca/internal/ir"
	"dca/internal/polly"
	"dca/internal/workloads/archetype"
	"dca/internal/workloads/npb"
)

// npbCold is the cold NPB workload: the ten NPB proxies through the full
// paper pipeline (dependence profile, five baselines, DCA with the prover
// on) with nproc workers and a fresh memory-only verdict cache per pass,
// rendering Tables I/III/IV and Figures 6/7.
type npbCold struct {
	specs   []*npb.Spec
	full    bool // all ten proxies: the tables are checked too
	workers int
	ck      *checker
	tr      *tracer // nil unless this run traces

	// State of the last traced pass.
	cache   *timedCache
	store   *cache.Cache
	results []*bench.NPBResult
}

func newNPBCold(names []string, workers int, ck *checker, tr *tracer) (*npbCold, error) {
	w := &npbCold{specs: npb.Specs(), full: len(names) == 0, workers: workers, ck: ck, tr: tr}
	if !w.full {
		w.specs = nil
		for _, name := range names {
			s := npb.SpecByName(name)
			if s == nil {
				return nil, fmt.Errorf("npb-cold: unknown NPB program %q", name)
			}
			w.specs = append(w.specs, s)
		}
	}
	return w, nil
}

func (w *npbCold) units() []string {
	var names []string
	for _, s := range w.specs {
		names = append(names, s.Name)
	}
	return names
}

// setup generates and compiles every proxy: the front-end work a pass
// repeats before any analysis.
func (w *npbCold) setup(context.Context) error {
	for _, s := range w.specs {
		if _, err := s.Compile(); err != nil {
			return fmt.Errorf("npb-cold: %s: %w", s.Name, err)
		}
	}
	return nil
}

func (w *npbCold) close() {}

func (w *npbCold) pass(ctx context.Context, traced bool) (passResult, error) {
	var suite *bench.Suite
	var err error
	switch {
	case traced:
		suite, err = w.tracedSuite(ctx)
	case w.full:
		var c *cache.Cache
		if c, err = cache.Open("", 0, core.CacheRecordVersion); err == nil {
			suite, err = bench.RunSuiteConfig(w.workers, c, false)
		}
	default:
		suite, err = w.subsetSuite()
	}
	if err != nil {
		n, _ := w.ck.rows(fxNPBLoops, w.units(), nil)
		return passResult{attempted: n, failed: n}, err
	}
	return w.check(suite), nil
}

// subsetSuite runs a subset of the proxies the way RunSuiteConfig runs all
// ten: one shared pool, a spec-level gate of the same width.
func (w *npbCold) subsetSuite() (*bench.Suite, error) {
	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		return nil, err
	}
	pool := engine.NewPool(w.workers)
	return w.fanOut(func(s *npb.Spec) (*bench.NPBResult, error) {
		return bench.RunNPBConfig(s, pool, c, false)
	})
}

// fanOut runs one function per spec, at most w.workers at a time, keeping
// spec order.
func (w *npbCold) fanOut(run func(*npb.Spec) (*bench.NPBResult, error)) (*bench.Suite, error) {
	results := make([]*bench.NPBResult, len(w.specs))
	errs := make([]error, len(w.specs))
	gate := make(chan struct{}, w.workers)
	var wg sync.WaitGroup
	for i, s := range w.specs {
		wg.Add(1)
		go func(i int, s *npb.Spec) {
			defer wg.Done()
			gate <- struct{}{}
			defer func() { <-gate }()
			results[i], errs[i] = run(s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &bench.Suite{Results: results}, nil
}

// tracedSuite is RunSuiteConfig rebuilt from the public calls it makes, so
// each call can be timed and the analysis can carry a trace sink and a
// timing cache wrapper. The fixtures check that it renders the same tables.
func (w *npbCold) tracedSuite(ctx context.Context) (*bench.Suite, error) {
	store, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		return nil, err
	}
	w.store = store
	w.cache = &timedCache{inner: store, t: w.tr}
	pool := engine.NewPool(w.workers)
	suite, err := w.fanOut(func(s *npb.Spec) (*bench.NPBResult, error) {
		return w.tracedSpec(ctx, s, pool)
	})
	if err == nil {
		w.results = suite.Results
	}
	return suite, err
}

// tracedSpec mirrors bench.RunNPBConfig call for call.
func (w *npbCold) tracedSpec(ctx context.Context, spec *npb.Spec, pool *engine.Pool) (*bench.NPBResult, error) {
	tr := w.tr
	var prog *ir.Program
	var err error
	tr.timed(&tr.compileS, func() { prog, err = spec.Compile() })
	if err != nil {
		return nil, err
	}
	r := &bench.NPBResult{Spec: spec, Prog: prog}
	tr.timed(&tr.depprofS, func() { r.Prof, err = depprof.Trace(prog, 0) })
	if err != nil {
		return nil, fmt.Errorf("%s: trace: %w", spec.Name, err)
	}
	tr.timed(&tr.baselinesS, func() {
		r.DP = depprof.AnalyzeProfile(prog, r.Prof, depprof.DefaultPolicy())
		r.DiP = discopop.AnalyzeProfile(prog, r.Prof)
		r.ID = idioms.Analyze(prog)
		r.PO = polly.Analyze(prog)
		r.IC = icc.Analyze(prog)
	})
	eopt := engine.Options{Core: core.Options{
		Schedules: []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}},
		Cache:     w.cache,
		Trace:     tr.sink(true),
	}, Workers: 1, Pool: pool}
	tr.engineCall(func() { r.DCA, err = engine.Analyze(ctx, prog, eopt) })
	if err != nil {
		return nil, fmt.Errorf("%s: dca: %w", spec.Name, err)
	}
	r.Truth = truthMap(spec, prog)
	r.LoopKeys()
	return r, nil
}

// truthMap is the generator's ground truth per loop: function workN holds
// group N's archetype instances' loops in order, and every archetype kind
// carries its label by construction.
func truthMap(spec *npb.Spec, prog *ir.Program) map[depprof.LoopKey]archetype.Truth {
	m := map[depprof.LoopKey]archetype.Truth{}
	for gi, g := range spec.Groups() {
		fn := prog.Func(fmt.Sprintf("work%d", gi))
		if fn == nil {
			continue
		}
		_, loops := cfg.LoopsOf(fn)
		li := 0
		for _, inst := range g {
			for k := 0; k < inst.Kind.LoopsPerInstance() && li < len(loops); k++ {
				m[depprof.LoopKey{Fn: fn.Name, Index: loops[li].Index}] = inst.Kind.Truth()
				li++
			}
		}
	}
	return m
}

// check compares the pass with the fixtures and the ground truth. A loop
// fails when its row differs from the fixture, its verdict is an analysis
// failure, or DCA's decision contradicts the generator's label; a table
// that differs fails every loop of the pass.
func (w *npbCold) check(suite *bench.Suite) passResult {
	var rows []string
	bad := map[string]bool{}
	var lat []float64
	for _, r := range suite.Results {
		disagree := 0
		for _, key := range r.LoopKeys() {
			k := fmt.Sprintf("%s\t%s\t%d", r.Spec.Name, key.Fn, key.Index)
			res := r.DCA.Result(key.Fn, key.Index)
			if res == nil {
				continue // missing: the row comparison fails it
			}
			rows = append(rows, k+"\t"+res.Verdict.String()+"\t"+res.Reason)
			lat = append(lat, ms(res.Elapsed))
			if analysisFailed(res.Verdict.String()) {
				bad[k] = true
				w.ck.note("npb-cold: %s: verdict %s: %s", k, res.Verdict, res.Reason)
			}
			if truth, ok := r.Truth[key]; ok && !agrees(res.Verdict, truth) {
				bad[k] = true
				disagree++
				w.ck.note("npb-cold: %s: verdict %s contradicts ground truth %v", k, res.Verdict, truth)
			}
		}
		if _, fp, fn := r.Accuracy(); fp+fn != disagree {
			w.ck.note("npb-cold: %s: Accuracy reports %d errors, per-loop check %d", r.Spec.Name, fp+fn, disagree)
			bad[r.Spec.Name] = true
		}
	}
	attempted, failed := w.ck.rows(fxNPBLoops, w.units(), rows)
	for k := range bad {
		failed[k] = true
	}
	n := len(failed)
	if w.full && !w.ck.text(fxNPBTables, npbTables(suite)) {
		n = attempted
	}
	return passResult{attempted: attempted, failed: min(n, attempted), latencyMS: lat}
}

func npbTables(s *bench.Suite) string {
	return s.TableI() + "\n" + s.TableIII() + "\n" + s.TableIV() + "\n" + s.Figure6() + "\n" + s.Figure7()
}

// analysisFailed reports the verdict names that say the analysis, not the
// program, gave no answer.
func analysisFailed(verdict string) bool {
	return verdict == core.Failed.String() || verdict == core.ResourceExhausted.String() || verdict == core.Cancelled.String()
}

// agrees mirrors NPBResult.Accuracy: a detected loop must not be serial or
// I/O, and a parallel loop must be detected.
func agrees(v core.Verdict, truth archetype.Truth) bool {
	if v.IsParallelizable() {
		return truth != archetype.TruthSerial && truth != archetype.TruthIO
	}
	return truth != archetype.TruthParallel
}

func (w *npbCold) layers() map[string]float64 {
	m := newLayers()
	var loops []*core.LoopResult
	for _, r := range w.results {
		loops = append(loops, r.DCA.Loops...)
	}
	addAnalysisLayers(m, w.tr, loopFactsOf(loops), staticSeconds(loops), staticSeconds(loops), w.workers)
	addCacheLayers(m, []*timedCache{w.cache}, []cache.Stats{w.store.Stats()})
	return m
}
