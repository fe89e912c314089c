package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"dca/internal/bench"
	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/depprof"
	"dca/internal/discopop"
	"dca/internal/engine"
	"dca/internal/icc"
	"dca/internal/idioms"
	"dca/internal/ir"
	"dca/internal/machine"
	"dca/internal/polly"
	"dca/internal/workloads/plds"
)

// pldsWorkload runs the fourteen PLDS programs through bench.RunPLDS one at
// a time, producing Table II and Figure 5. Pointer-linked live-outs make
// the live-out digest most of its CPU.
type pldsWorkload struct {
	progs []*plds.Program
	full  bool
	ck    *checker
	tr    *tracer

	// Loop results of the last traced pass: key loops analysed alone, and
	// the Figure 5 whole-program engine analyses (GOMAXPROCS workers).
	keyLoops, engineLoops []*core.LoopResult
}

func newPLDS(names []string, ck *checker, tr *tracer) (*pldsWorkload, error) {
	w := &pldsWorkload{progs: plds.Programs(), full: len(names) == 0, ck: ck, tr: tr}
	if !w.full {
		w.progs = nil
		for _, name := range names {
			p := plds.ByName(name)
			if p == nil {
				return nil, fmt.Errorf("plds: unknown PLDS program %q", name)
			}
			w.progs = append(w.progs, p)
		}
	}
	return w, nil
}

func (w *pldsWorkload) units() []string {
	var names []string
	for _, p := range w.progs {
		names = append(names, p.Name)
	}
	return names
}

// setup compiles every program.
func (w *pldsWorkload) setup(context.Context) error {
	for _, p := range w.progs {
		if _, err := p.Compile(); err != nil {
			return err
		}
	}
	return nil
}

func (w *pldsWorkload) close() {}

// pass analyses the programs one at a time, as one batch: Table II needs
// every verdict, so a key loop's verdict latency runs from the pass start
// to the RunPLDS call that delivers it. The programs run in reverse Table II
// order, which puts BFS before the 5-30 ms programs; their single calls are
// too short to time steadily on a shared host, so the percentiles rest on
// the long analyses instead.
func (w *pldsWorkload) pass(ctx context.Context, traced bool) (passResult, error) {
	w.keyLoops, w.engineLoops = nil, nil
	results := make([]*bench.PLDSResult, len(w.progs))
	var lat []float64
	start := time.Now()
	for i := len(w.progs) - 1; i >= 0; i-- {
		p := w.progs[i]
		var err error
		if traced {
			results[i], err = w.traced(ctx, p)
		} else {
			results[i], err = bench.RunPLDS(p)
		}
		if err != nil {
			n := len(w.progs)
			return passResult{attempted: n, failed: n}, err
		}
		lat = append(lat, ms(time.Since(start)))
	}
	var rows []string
	for _, r := range results {
		rows = append(rows, pldsRow(r))
	}
	attempted, failed := w.ck.rows(fxPLDSRows, w.units(), rows)
	n := len(failed)
	if w.full && !w.ck.text(fxPLDSTables, bench.TableII(results)+"\n"+bench.Figure5(results)) {
		n = attempted
	}
	return passResult{attempted: attempted, failed: n, latencyMS: lat}, nil
}

// pldsRow is one program's checked outcome: its key loop's DCA decision,
// the baselines that claimed it, the measured coverage and the modelled
// Figure 5 speedup.
func pldsRow(r *bench.PLDSResult) string {
	return fmt.Sprintf("%s\t%s\t%d\t%t\t%s\t%s\t%.4f\t%.4f", r.Program.Name, r.Program.KeyFn, r.Program.KeyLoop,
		r.DCAFound, r.DCAWhy, strings.Join(r.BaselinesDetecting, ","), r.CoverageMeasured, r.Speedup)
}

// traced is bench.RunPLDS rebuilt from the public calls it makes, each
// timed, with the analyses feeding the trace sink.
func (w *pldsWorkload) traced(ctx context.Context, p *plds.Program) (*bench.PLDSResult, error) {
	tr := w.tr
	var prog *ir.Program
	var err error
	tr.timed(&tr.compileS, func() { prog, err = p.Compile() })
	if err != nil {
		return nil, err
	}
	res := &bench.PLDSResult{Program: p}
	var key *core.LoopResult
	tr.timed(&tr.dcaS, func() {
		key, err = core.AnalyzeLoop(prog, p.KeyFn, p.KeyLoop, core.Options{
			Schedules: []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}, dcart.Random{Seed: 2}},
			Trace:     tr.sink(false),
		})
	})
	if err != nil {
		return nil, fmt.Errorf("%s: dca: %w", p.Name, err)
	}
	w.keyLoops = append(w.keyLoops, key)
	res.DCAFound = key.Verdict.IsParallelizable()
	res.DCAWhy = key.Reason

	var prof *depprof.Profile
	tr.timed(&tr.depprofS, func() { prof, err = depprof.Trace(prog, 0) })
	if err != nil {
		return nil, err
	}
	var dp *depprof.Report
	tr.timed(&tr.baselinesS, func() {
		dp = depprof.AnalyzeProfile(prog, prof, depprof.DefaultPolicy())
		if v := dp.Verdict(p.KeyFn, p.KeyLoop); v != nil && v.Parallel {
			res.BaselinesDetecting = append(res.BaselinesDetecting, "DepProf")
		}
		if v := discopop.AnalyzeProfile(prog, prof).Verdict(p.KeyFn, p.KeyLoop); v != nil && v.Parallel {
			res.BaselinesDetecting = append(res.BaselinesDetecting, "DiscoPoP")
		}
		if v := idioms.Analyze(prog).Verdict(p.KeyFn, p.KeyLoop); v != nil && v.Parallel {
			res.BaselinesDetecting = append(res.BaselinesDetecting, "Idioms")
		}
		if v := polly.Analyze(prog).Verdict(p.KeyFn, p.KeyLoop); v != nil && v.Parallel {
			res.BaselinesDetecting = append(res.BaselinesDetecting, "Polly")
		}
		if v := icc.Analyze(prog).Verdict(p.KeyFn, p.KeyLoop); v != nil && v.Parallel {
			res.BaselinesDetecting = append(res.BaselinesDetecting, "ICC")
		}
	})

	keyLoop := depprof.LoopKey{Fn: p.KeyFn, Index: p.KeyLoop}
	res.CoverageMeasured = machine.Coverage(dp.Profile, []depprof.LoopKey{keyLoop})
	if p.Fig5 {
		var full *core.Report
		tr.engineCall(func() {
			full, err = engine.Analyze(ctx, prog, engine.Options{Core: core.Options{
				Schedules: []dcart.Schedule{dcart.Reverse{}, dcart.Random{Seed: 1}},
				Trace:     tr.sink(true),
			}})
		})
		if err != nil {
			return nil, fmt.Errorf("%s: dca full: %w", p.Name, err)
		}
		w.engineLoops = append(w.engineLoops, full.Loops...)
		var keys []depprof.LoopKey
		for _, lr := range full.Loops {
			if lr.Verdict.IsParallelizable() {
				keys = append(keys, depprof.LoopKey{Fn: lr.Fn, Index: lr.Index})
			}
		}
		model := machine.Xeon72(p.Cap)
		sel := machine.SelectBest(model, dp.Profile, keys, bench.MinProfitableCoverage)
		res.Speedup = machine.Speedup(model, dp.Profile, sel)
	}
	return res, nil
}

func (w *pldsWorkload) layers() map[string]float64 {
	m := newLayers()
	loops := append(append([]*core.LoopResult(nil), w.keyLoops...), w.engineLoops...)
	addAnalysisLayers(m, w.tr, loopFactsOf(loops), staticSeconds(loops), staticSeconds(w.engineLoops), runtime.GOMAXPROCS(0))
	return m
}
