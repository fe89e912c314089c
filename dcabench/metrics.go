package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. moves says which end-to-end metric a
// per-layer metric should move, and on which workload.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the user-visible metrics every untraced run reports. The
// failed-loop share is not among them: it is 0 on a correct run, so it
// travels as the result line's attempted/failed counts instead.
var endToEnd = []metricDef{
	{"wall_s", "s", ""},
	{"cpu_s", "s", ""},
	{"setup_s", "s", ""},
	{"alloc_gb", "GB", ""},
	{"peak_rss_mb", "MB", ""},
	{"verdict_latency_ms_mean", "ms", ""},
	{"verdict_latency_ms_p99", "ms", ""},
}

// perLayer are the metrics of the traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"sandbox.reference_s", "s", "wall_s on fleet-warm"},
	{"sandbox.reference_runs", "count", "wall_s on fleet-warm"},
	{"frontend.compile_s", "s", "wall_s on npb-cold and plds"},
	{"instrument.static_s", "s", "wall_s, verdict_latency_ms_mean on fleet-warm"},
	{"instrument.loops", "count", "wall_s, verdict_latency_ms_mean on fleet-warm"},
	{"prove.prove_s", "s", "wall_s on npb-cold"},
	{"prove.attempts", "count", "wall_s on npb-cold"},
	{"prove.proved", "count", "wall_s on npb-cold"},
	{"prove.proved_ratio", "ratio", "wall_s on npb-cold"},
	{"core.golden_s", "s", "wall_s, cpu_s on npb-cold; none on fleet-warm"},
	{"core.golden_runs", "count", "wall_s, cpu_s on npb-cold; none on fleet-warm"},
	{"core.replay_s", "s", "wall_s on npb-cold"},
	{"core.replays", "count", "wall_s on npb-cold"},
	{"core.golden_over_reference_x", "x", "wall_s on plds (target <= 10 for BFS)"},
	{"core.skipped_prescreen", "count", "none: a removed bypass keeps core.replays"},
	{"core.skipped_footprint", "count", "none: a removed bypass keeps core.replays"},
	{"core.skipped_prove", "count", "none: a removed bypass keeps core.replays"},
	{"core.skipped_stop", "count", "none: a removed bypass keeps core.replays"},
	{"core.traps", "count", "failed loops on every workload"},
	{"core.retries", "count", "wall_s on every workload"},
	{"core.loop_ms_p50", "ms", "wall_s on npb-cold"},
	{"core.loop_ms_p99", "ms", "wall_s on npb-cold"},
	{"dcart.snapshots", "count", "cpu_s, wall_s, alloc_gb on plds; none on npb-cold"},
	{"dcart.digest_cpu_share", "ratio", "cpu_s, wall_s, alloc_gb on plds; none on npb-cold"},
	{"engine.analyze_s", "s", "wall_s (not cpu_s) on npb-cold"},
	{"engine.busy_ratio", "ratio", "wall_s (not cpu_s) on npb-cold"},
	{"depprof.trace_s", "s", "wall_s on npb-cold"},
	{"baselines.analyze_s", "s", "wall_s on npb-cold"},
	{"cache.gets", "count", "wall_s, verdict_latency_ms_* on fleet-warm"},
	{"cache.get_s", "s", "wall_s, verdict_latency_ms_* on fleet-warm"},
	{"cache.hits", "count", "wall_s, verdict_latency_ms_* on fleet-warm"},
	{"cache.hit_ratio", "ratio", "wall_s, verdict_latency_ms_* on fleet-warm"},
	{"cache.mem_hits", "count", "wall_s, verdict_latency_ms_* on fleet-warm"},
	{"cache.disk_hits", "count", "wall_s, verdict_latency_ms_* on fleet-warm"},
	{"cache.puts", "count", "wall_s on npb-cold"},
	{"cache.put_s", "s", "wall_s on npb-cold"},
	{"journal.records", "count", "wall_s on fleet-warm"},
	{"journal.bytes", "bytes", "wall_s on fleet-warm"},
	{"fleet.dispatches", "count", "verdict_latency_ms_p99, wall_s on fleet-warm"},
	{"fleet.dispatch_s", "s", "verdict_latency_ms_p99, wall_s on fleet-warm"},
	{"fleet.dispatch_ms_p50", "ms", "verdict_latency_ms_p99, wall_s on fleet-warm"},
	{"fleet.response_mb", "MB", "verdict_latency_ms_p99, wall_s on fleet-warm"},
	{"fleet.retries", "count", "verdict_latency_ms_p99, wall_s on fleet-warm"},
	{"fleet.redispatches", "count", "verdict_latency_ms_p99, wall_s on fleet-warm"},
	{"fleet.hedges", "count", "verdict_latency_ms_p99, wall_s on fleet-warm"},
	{"fleet.fallback_loops", "count", "verdict_latency_ms_p99, wall_s on fleet-warm"},
	{"fleet.peer_hits", "count", "verdict_latency_ms_p99, wall_s on fleet-warm"},
	{"fleet.peer_misses", "count", "verdict_latency_ms_p99, wall_s on fleet-warm"},
	{"fleet.peer_errors", "count", "verdict_latency_ms_p99, wall_s on fleet-warm"},
	{"server.first_verdict_ms_p50", "ms", "verdict_latency_ms_mean on fleet-warm"},
	{"runtime.gc_cpu_s", "s", "cpu_s on plds and npb-cold"},
	{"runtime.gc_cycles", "count", "cpu_s on plds and npb-cold"},
	{"trace.wall_s", "s", "the traced pass's own wall-clock"},
	{"trace.overhead_s", "s", "tracing overhead: trace.wall_s minus the untraced wall_s"},
	{"split.layer_s", "s", "summed top-level layer calls of the traced pass"},
	{"split.unattributed_s", "s", "driving slots x trace.wall_s not covered by a layer call"},
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// mean returns the arithmetic mean of xs; 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// usage is a process CPU and memory snapshot.
type usage struct {
	cpu     time.Duration // user + system
	maxRSSK int64         // peak resident set, KiB
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		maxRSSK: int64(ru.Maxrss),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
