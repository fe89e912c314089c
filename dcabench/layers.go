package main

import (
	"time"

	"dca/internal/cache"
	"dca/internal/core"
)

// newLayers returns every per-layer metric at 0; a workload fills in the
// layers it exercises.
func newLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// loopFacts are the per-loop counters every result form carries
// (core.LoopResult in process, core.LoopJSON over the wire).
type loopFacts struct {
	invocations, replays                        int
	skippedFootprint, skippedProve, skippedStop int
}

func loopFactsOf(loops []*core.LoopResult) []loopFacts {
	out := make([]loopFacts, 0, len(loops))
	for _, l := range loops {
		out = append(out, loopFacts{l.Invocations, l.Replays, l.SkippedFootprint, l.SkippedProve, l.SkippedStop})
	}
	return out
}

func loopFactsOfJSON(loops []core.LoopJSON) []loopFacts {
	out := make([]loopFacts, 0, len(loops))
	for _, l := range loops {
		out = append(out, loopFacts{l.Invocations, l.Replays, l.SkippedFootprint, l.SkippedProve, l.SkippedStop})
	}
	return out
}

// staticSeconds sums the loops' static-stage time.
func staticSeconds(loops []*core.LoopResult) float64 {
	var d time.Duration
	for _, l := range loops {
		d += l.DurStatic
	}
	return d.Seconds()
}

// addAnalysisLayers fills the sandbox, instrument, prove, core, dcart,
// engine, depprof and baselines layers from the traced pass's events,
// timed calls and loop results. staticS is every analysed loop's static
// time; engineStaticS the part spent inside timed engine.Analyze calls,
// whose pool of the given width the busy ratio divides by.
func addAnalysisLayers(m map[string]float64, tr *tracer, loops []loopFacts, staticS, engineStaticS float64, workers int) {
	a, e := &tr.all, &tr.engine
	m["sandbox.reference_s"] = a.referenceS
	m["sandbox.reference_runs"] = float64(a.referenceN)
	m["frontend.compile_s"] = tr.compileS
	m["instrument.static_s"] = staticS
	m["instrument.loops"] = float64(a.staticLoops)
	m["prove.prove_s"] = a.proveS
	m["prove.attempts"] = float64(a.proveN)
	m["prove.proved"] = float64(a.provedN)
	m["prove.proved_ratio"] = ratio(float64(a.provedN), float64(a.proveN))
	m["core.golden_s"] = a.goldenS
	m["core.golden_runs"] = float64(a.goldenN)
	m["core.replay_s"] = a.replayS
	m["core.replays"] = float64(a.replayN)
	// Only engine calls emit reference events, so the ratio pairs their
	// golden runs with their reference runs.
	m["core.golden_over_reference_x"] = ratio(e.goldenS, e.referenceS)
	m["core.skipped_prescreen"] = float64(a.prescreenSkips)
	m["core.traps"] = float64(a.traps)
	m["core.retries"] = float64(a.retries)
	m["core.loop_ms_p50"] = percentile(a.verdictMS, 50)
	m["core.loop_ms_p99"] = percentile(a.verdictMS, 99)
	var snaps, fp, pr, st int
	for _, l := range loops {
		snaps += l.invocations * l.replays
		fp += l.skippedFootprint
		pr += l.skippedProve
		st += l.skippedStop
	}
	m["dcart.snapshots"] = float64(snaps)
	m["core.skipped_footprint"] = float64(fp)
	m["core.skipped_prove"] = float64(pr)
	m["core.skipped_stop"] = float64(st)
	analyze := tr.engineWall()
	m["engine.analyze_s"] = analyze
	busy := e.referenceS + engineStaticS + e.proveS + e.goldenS + e.replayS
	m["engine.busy_ratio"] = ratio(busy, analyze*float64(workers))
	m["depprof.trace_s"] = tr.depprofS
	m["baselines.analyze_s"] = tr.baselinesS
	m["split.layer_s"] = tr.compileS + tr.depprofS + tr.baselinesS + tr.dcaS
}

// addCacheLayers fills the cache layer from the timing wrappers and the
// stores' own tier counters.
func addCacheLayers(m map[string]float64, wrapped []*timedCache, stats []cache.Stats) {
	var gets, hits, puts, getNS, putNS int64
	for _, c := range wrapped {
		gets += c.gets.Load()
		hits += c.hits.Load()
		puts += c.puts.Load()
		getNS += c.getNanos.Load()
		putNS += c.putNanos.Load()
	}
	var mem, disk uint64
	for _, s := range stats {
		mem += s.MemHits
		disk += s.DiskHits
	}
	m["cache.gets"] = float64(gets)
	m["cache.get_s"] = time.Duration(getNS).Seconds()
	m["cache.hits"] = float64(hits)
	m["cache.hit_ratio"] = ratio(float64(hits), float64(gets))
	m["cache.mem_hits"] = float64(mem)
	m["cache.disk_hits"] = float64(disk)
	m["cache.puts"] = float64(puts)
	m["cache.put_s"] = time.Duration(putNS).Seconds()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
