// Command dcabench is the repository's benchmark. It drives the analysis
// through its public packages on three workloads — the cold NPB suite, the
// PLDS programs and a warm loopback fleet — checks every pass against the
// committed fixtures, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer split of one extra traced pass). The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash dcabench/run.sh --workload npb-cold --seed 1 --seconds 20 --trace 0
//
// See dcabench/README.md for why each workload exists and which layer
// metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// processStart approximates the process start for the set-up clock.
var processStart = time.Now()

var workloadNames = []string{"npb-cold", "plds", "fleet-warm"}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	// programs restricts the workload to some programs (NPB names for
	// npb-cold and fleet-warm, PLDS names for plds), as the smoke tests do;
	// nil runs them all and also checks the whole tables.
	programs []string
	// update writes the pass's outputs as the new fixtures into this
	// directory instead of checking them.
	update string
	fx     fixtures
}

// workload is one benchmark workload.
type workload interface {
	// setup prepares the timed passes; the runner repeats it and reports
	// the median, each call replacing the previous state.
	setup(ctx context.Context) error
	// pass runs once over the workload's programs and checks the outputs.
	// traced turns the per-layer collection on.
	pass(ctx context.Context, traced bool) (passResult, error)
	// layers returns the last traced pass's per-layer metrics.
	layers() map[string]float64
	close()
}

// passResult is one pass's checked outcome.
type passResult struct {
	attempted, failed int
	latencyMS         []float64 // one sample per verdict
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measure passes for at least this long")
	flag.IntVar(&trace, "trace", 0, "1: add one traced pass and report the per-layer metrics")
	flag.StringVar(&cfg.workDir, "workdir", os.TempDir(), "directory for scratch files")
	flag.StringVar(&cfg.update, "update-fixtures", "", "write this run's outputs as fixtures into this directory")
	flag.Parse()
	cfg.trace = trace == 1
	fx, err := loadFixtures()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcabench:", err)
		os.Exit(2)
	}
	cfg.fx = fx
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcabench:", err)
	}
	if res == nil {
		os.Exit(2)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func newWorkload(cfg config, ck *checker, tr *tracer) (workload, error) {
	workers := runtime.GOMAXPROCS(0)
	switch cfg.workload {
	case "npb-cold":
		return newNPBCold(cfg.programs, workers, ck, tr)
	case "plds":
		return newPLDS(cfg.programs, ck, tr)
	case "fleet-warm":
		return newFleetWarm(cfg.programs, cfg.seed, cfg.workDir, ck, tr)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// schedule says how a run alternates set-up and timed passes: it makes
// rounds rounds, each of setups set-ups followed by an equal share of the
// measuring time.
// The fleet's set-up starts a new fleet and fills it with a cold pass. Its
// ring hashes the workers' loopback URLs, so how the loops split between
// the two workers changes with the ports: one fleet's passes agree to a few
// percent, while fleets in one process differed by up to 20%. A run
// therefore measures three fleets. The other set-ups only compile, in
// milliseconds, so they take many samples for a steady median.
func schedule(workload string) (rounds, setups int) {
	if workload == "fleet-warm" {
		return 3, 1
	}
	return 1, 25
}

// run executes one benchmark run and returns its result line; a nil result
// means the run could not start. Human-readable lines go to out.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	ck := newChecker(cfg.fx, cfg.update != "")
	var tr *tracer
	if cfg.trace {
		tr = &tracer{}
	}
	w, err := newWorkload(cfg, ck, tr)
	if err != nil {
		return nil, err
	}
	defer w.close()
	fmt.Fprintf(out, "dcabench: workload=%s seed=%d commit=%s num_cpu=%d gomaxprocs=%d go=%s seconds=%g trace=%t\n",
		cfg.workload, cfg.seed, commit(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seconds, cfg.trace)

	res := &result{Metrics: map[string]metric{}}
	var runErr error
	tally := func(pr passResult, err error) bool {
		res.Attempted += pr.attempted
		res.Failed += pr.failed
		if err != nil && runErr == nil {
			runErr = err
		}
		return err == nil
	}

	// Untraced passes: at least one per round, until the round's share of
	// the measuring time is spent. A traced run needs only one per round, as
	// the baseline for the tracing overhead; so does writing fixtures.
	rounds, setupsPerRound := schedule(cfg.workload)
	var setups, walls, cpus, allocs, latMean, latP99 []float64
	verdicts := 0
	var measured time.Duration
	for r := 0; r < rounds; r++ {
		for i := 0; i < setupsPerRound; i++ {
			start := time.Now()
			if r == 0 && i == 0 {
				start = processStart
			}
			if err := w.setup(ctx); err != nil {
				tally(passResult{}, err)
				return finish(res, ck, runErr, cfg.update, out), runErr
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		share := time.Duration(cfg.seconds * float64(time.Second) * float64(r+1) / float64(rounds))
		for first := true; first || (!cfg.trace && cfg.update == "" && measured < share); first = false {
			u0, r0, t0 := readUsage(), readRuntime(), time.Now()
			pr, err := w.pass(ctx, false)
			wall := time.Since(t0)
			u1, r1 := readUsage(), readRuntime()
			if !tally(pr, err) {
				return finish(res, ck, runErr, cfg.update, out), runErr
			}
			measured += wall
			walls = append(walls, wall.Seconds())
			cpus = append(cpus, (u1.cpu - u0.cpu).Seconds())
			allocs = append(allocs, float64(r1.allocBytes-r0.allocBytes)/1e9)
			latMean = append(latMean, mean(pr.latencyMS))
			latP99 = append(latP99, percentile(pr.latencyMS, 99))
			verdicts += len(pr.latencyMS)
			fmt.Fprintf(out, "pass %d: wall %.3f s  cpu %.3f s  alloc %.3f GB  verdicts %d  failed %d\n",
				len(walls), walls[len(walls)-1], cpus[len(cpus)-1], allocs[len(allocs)-1], pr.attempted, pr.failed)
		}
	}
	e2e := map[string]float64{
		"wall_s":                  median(walls),
		"cpu_s":                   median(cpus),
		"setup_s":                 median(setups),
		"alloc_gb":                median(allocs),
		"peak_rss_mb":             float64(readUsage().maxRSSK) / 1024,
		"verdict_latency_ms_mean": median(latMean),
		"verdict_latency_ms_p99":  median(latP99),
	}
	fmt.Fprintf(out, "end-to-end (median of %d passes and %d set-ups; latency from %d verdicts):\n", len(walls), len(setups), verdicts)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-24s %14.4f %s\n", d.name, e2e[d.name], d.unit)
	}
	fmt.Fprintf(out, "  %-24s %14.6f (%d of %d loops)\n", "failed_loop_share",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)

	if !cfg.trace {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{e2e[d.name], d.unit}
		}
		return finish(res, ck, runErr, cfg.update, out), runErr
	}

	// The traced pass: collectors, wrappers and the CPU profile on. The
	// profile is folded after the pass's clock stops.
	var pr passResult
	var traceWall float64
	var r0, r1 runtimeSample
	share, err := profileCPU(cfg.workDir, `^dca/internal/dcart\.SnapshotDigest\b`, func() error {
		var perr error
		r0 = readRuntime()
		t0 := time.Now()
		tr.on.Store(true)
		pr, perr = w.pass(ctx, true)
		tr.on.Store(false)
		traceWall = time.Since(t0).Seconds()
		r1 = readRuntime()
		return perr
	})
	if !tally(pr, err) {
		return finish(res, ck, runErr, cfg.update, out), runErr
	}
	m := w.layers()
	m["dcart.digest_cpu_share"] = share
	m["runtime.gc_cpu_s"] = r1.gcCPU - r0.gcCPU
	m["runtime.gc_cycles"] = float64(r1.gcCycles - r0.gcCycles)
	m["trace.wall_s"] = traceWall
	m["trace.overhead_s"] = traceWall - e2e["wall_s"]
	if m["split.layer_s"] > 0 {
		m["split.unattributed_s"] = traceWall*float64(drivingSlots(cfg.workload)) - m["split.layer_s"]
	}
	printLayers(out, cfg.workload, m)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	return finish(res, ck, runErr, cfg.update, out), runErr
}

// drivingSlots is how many goroutines drive an in-process workload's
// top-level calls: npb-cold runs GOMAXPROCS programs at once, plds one.
func drivingSlots(workload string) int {
	if workload == "npb-cold" {
		return runtime.GOMAXPROCS(0)
	}
	return 1
}

// finish settles correctness: no run error, no failed loop and no fixture
// mismatch. In update mode it writes the fixtures instead.
func finish(res *result, ck *checker, runErr error, update string, out io.Writer) *result {
	res.Correct = runErr == nil && res.Failed == 0 && len(ck.mismatches) == 0 && res.Attempted > 0
	for _, m := range ck.mismatches {
		fmt.Fprintln(os.Stderr, "mismatch:", m)
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the result line needs attempted >= 1
		res.Failed = 1
	}
	if update != "" && res.Correct {
		if err := ck.writeFixtures(update); err != nil {
			fmt.Fprintln(os.Stderr, "dcabench: write fixtures:", err)
			res.Correct = false
		} else {
			fmt.Fprintln(out, "fixtures written to", update)
		}
	}
	return res
}

// printLayers prints the per-layer table of a traced pass.
func printLayers(out io.Writer, workload string, m map[string]float64) {
	fmt.Fprintf(out, "per-layer (traced pass, %s):\n", workload)
	fmt.Fprintf(out, "  %-30s %-6s %16s  %s\n", "metric", "unit", "value", "should move")
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-30s %-6s %16.4f  %s\n", d.name, d.unit, m[d.name], d.moves)
	}
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
