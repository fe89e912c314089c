package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dca/internal/dcart"
	"dca/internal/fuzzgen/diff"
)

// cmdFuzz runs a differential fuzzing campaign: Count programs generated
// from consecutive seeds, each pushed through DCA, the parallel oracle, and
// (by default) the five baseline detectors, with ground-truth labels
// cross-checked throughout. Soundness violations, mislabeled productions,
// and parallel-vs-sequential divergences are minimized, written to the
// corpus, and fail the command.
func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "campaign seed; program i uses seed+i (0 is a valid fixed seed — never derived from the clock)")
	count := fs.Int("count", 1000, "number of programs to generate and check")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "concurrent program checks")
	schedules := fs.Int("schedules", 2, "number of random permutation schedules (plus reverse)")
	timeout := fs.Duration("timeout", 5*time.Second, "wall-clock limit per execution")
	maxSteps := fs.Int64("max-steps", 2_000_000, "instruction budget per execution")
	wall := fs.Duration("wall", 0, "campaign wall-clock cap; stop dispatching when exceeded (0 = none)")
	corpusDir := fs.String("corpus", "internal/fuzzgen/corpus", "directory for minimized counterexamples (empty = don't persist)")
	noBaselines := fs.Bool("no-baselines", false, "skip the five baseline detectors (faster; loses precision deltas)")
	parWorkers := fs.String("par-workers", "2", "comma-separated worker counts for the parallel oracle")
	benchOut := fs.String("bench-out", "", "write campaign stats as JSON to this file (BENCH_fuzz.json shape)")
	verbose := fs.Bool("v", false, "print the full label/verdict confusion matrix and baseline table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("fuzz: unexpected arguments %q", fs.Args())
	}
	workers, err := parseWorkerList(*parWorkers)
	if err != nil {
		return fmt.Errorf("fuzz: %w", err)
	}
	scheds := []dcart.Schedule{dcart.Reverse{}}
	for i := 0; i < *schedules; i++ {
		scheds = append(scheds, dcart.Random{Seed: int64(i + 1)})
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stats, failures, err := diff.RunCampaign(ctx, diff.CampaignOptions{
		Seed:  *seed,
		Count: *count,
		Jobs:  *jobs,
		Wall:  *wall,
		Check: diff.Options{
			Schedules:  scheds,
			MaxSteps:   *maxSteps,
			Timeout:    *timeout,
			ParWorkers: workers,
			Baselines:  !*noBaselines,
		},
		CorpusDir: *corpusDir,
		Log:       os.Stderr,
	})
	if err != nil {
		return fmt.Errorf("fuzz: %w", err)
	}
	printFuzzSummary(stats, *verbose)
	if *benchOut != "" {
		data, err := json.MarshalIndent(stats, "", "  ")
		if err != nil {
			return fmt.Errorf("fuzz: %w", err)
		}
		if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("fuzz: write bench stats: %w", err)
		}
		fmt.Fprintf(os.Stderr, "dca fuzz: wrote %s\n", *benchOut)
	}
	if n := stats.ViolationCount(); n > 0 {
		return fmt.Errorf("fuzz: %d violations (%d soundness, %d label, %d parallel-divergence, %d digest-divergence) across %d failures — see repro lines above",
			n, stats.SoundnessViolations, stats.LabelViolations, stats.ParallelDivergences, stats.DigestDivergences, len(failures))
	}
	return nil
}

// parseWorkerList parses "1,2,8" into worker counts.
func parseWorkerList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -par-workers entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-par-workers is empty")
	}
	return out, nil
}

func printFuzzSummary(s *diff.Stats, verbose bool) {
	done := s.Completed + s.Trapped
	fmt.Printf("== dca fuzz (seed %d) ==\n", s.CampaignSeed)
	fmt.Printf("programs: %d checked of %d requested (%.1f/sec), %d trapped (%.1f%%)\n",
		done, s.Requested, s.ProgramsPerSec, s.Trapped, 100*s.TrapRate)
	if len(s.TrapKinds) > 0 {
		fmt.Printf("traps: %s\n", sortedCounts(s.TrapKinds))
	}
	fmt.Printf("verdicts: %s\n", sortedCounts(s.Verdicts))
	fmt.Printf("labeled loops: %s\n", sortedCounts(s.Labels))
	fmt.Printf("parallel oracle: %d loops checked, %d refused\n", s.ParallelChecked, s.ParallelRefused)
	fmt.Printf("prover: %d loops static-proved (each cross-checked dynamically)\n", s.ProvedLoops)
	fmt.Printf("violations: %d soundness, %d label, %d parallel-divergence, %d exec-divergence, %d prover-divergence, %d digest-divergence\n",
		s.SoundnessViolations, s.LabelViolations, s.ParallelDivergences, s.ExecDivergences, s.ProverDivergences, s.DigestDivergences)
	if verbose {
		fmt.Printf("label/verdict: %s\n", sortedCounts(s.LabelVerdicts))
		names := make([]string, 0, len(s.Baselines))
		for name := range s.Baselines {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			b := s.Baselines[name]
			fmt.Printf("baseline %-9s parallel on %d/%d commutative, %d/%d non-commutative (over-claims)\n",
				name+":", b.OnCommutative, b.LabeledCommutative, b.OnNonCommutative, b.LabeledNonCommutative)
		}
	}
	if s.WallCapped {
		fmt.Println("note: wall-clock cap hit before the full count")
	}
}

// sortedCounts renders a count map deterministically: "a=1 b=2".
func sortedCounts(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, " ")
}
