package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"dca/internal/cache"
	"dca/internal/chaos"
	"dca/internal/core"
	"dca/internal/fleet"
	"dca/internal/irbuild"
	"dca/internal/obs"
	"dca/internal/server"
	"dca/internal/workloads/npb"
)

// cmdFleetBench measures the sharded fleet on the NPB-inspired suite: it
// boots N in-process workers on loopback listeners with the peer cache
// enabled, runs the suite through a coordinator cold and warm, kills one
// worker and runs a failover pass, and asserts every pass renders the
// same verdict table a single node does. The numbers go to stdout.
func cmdFleetBench(args []string) error {
	fs := flag.NewFlagSet("fleet-bench", flag.ExitOnError)
	nodes := fs.Int("nodes", 3, "fleet size")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "engine workers per node")
	chaosMode := fs.Bool("chaos", false, "run the network-chaos leg instead: seeded fault injection, kill/restart recovery, and an all-workers-dead fallback pass")
	chaosSeed := fs.Int64("chaos-seed", 1, "chaos leg: fault-injection seed")
	chaosProb := fs.Float64("chaos-prob", 0.2, "chaos leg: per-request fault probability")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("fleet-bench: unexpected arguments %q", fs.Args())
	}
	if *nodes < 2 {
		return fmt.Errorf("fleet-bench: -nodes must be >= 2 (the single-node reference is built in)")
	}
	ctx := context.Background()

	// Single-node reference: the verdict table every fleet pass must match.
	single, err := newBenchFleet(ctx, 1, *jobs)
	if err != nil {
		return fmt.Errorf("fleet-bench: %w", err)
	}
	defer single.stop()
	refTable, _, _, err := single.runSuite(ctx)
	if err != nil {
		return fmt.Errorf("fleet-bench: reference suite: %w", err)
	}
	single.stop()

	if *chaosMode {
		return chaosBench(ctx, refTable, *nodes, *jobs, *chaosSeed, *chaosProb)
	}

	fl, err := newBenchFleet(ctx, *nodes, *jobs)
	if err != nil {
		return fmt.Errorf("fleet-bench: %w", err)
	}
	defer fl.stop()

	coldTable, coldDur, coldLoops, err := fl.runSuite(ctx)
	if err != nil {
		return fmt.Errorf("fleet-bench: cold suite: %w", err)
	}
	warmTable, warmDur, _, err := fl.runSuite(ctx)
	if err != nil {
		return fmt.Errorf("fleet-bench: warm suite: %w", err)
	}
	warmReplays := fl.lastReplays

	// Failover: kill the last worker and run the suite again. The
	// coordinator must re-dispatch its shard to the ring successors and
	// still render the identical table.
	fl.kill(*nodes - 1)
	failTable, failDur, _, err := fl.runSuite(ctx)
	if err != nil {
		return fmt.Errorf("fleet-bench: failover suite: %w", err)
	}

	identical := coldTable == refTable && warmTable == refTable && failTable == refTable

	// Every worker's registry counts, including the killed one: its peer
	// traffic happened while it was alive.
	var hits, misses, errs uint64
	for _, w := range fl.workers {
		if m := w.FleetMetrics(); m != nil {
			hits += m.PeerHits.Value()
			misses += m.PeerMisses.Value()
			errs += m.PeerErrors.Value()
		}
	}
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	fmt.Printf("fleet-bench: %d nodes, %d loops, %s\n", *nodes, coldLoops, runtime.Version())
	fmt.Printf("  cold %.2fs  warm %.2fs  failover %.2fs\n", coldDur.Seconds(), warmDur.Seconds(), failDur.Seconds())
	fmt.Printf("  warm replays %d  peer hits %d / misses %d / errors %d (hit rate %.2f)\n",
		warmReplays, hits, misses, errs, hitRate)
	fmt.Printf("  re-dispatches %d  tables identical to single node: %v\n", fl.cm.Redispatches.Value(), identical)
	if !identical {
		return fmt.Errorf("fleet-bench: fleet verdict tables diverged from the single-node reference")
	}
	return nil
}

// chaosBench is the `fleet-bench -chaos` leg: the suite runs through a
// coordinator whose dispatch transport injects seeded network faults,
// then through a kill-then-restart recovery (timing the prober's
// re-admission), then with every worker dead (the local fallback). Every
// pass must render the single-node reference table byte-for-byte.
func chaosBench(ctx context.Context, refTable string, nodes, jobs int, seed int64, prob float64) error {
	fl, err := newBenchFleet(ctx, nodes, jobs)
	if err != nil {
		return fmt.Errorf("fleet-bench: %w", err)
	}
	defer fl.stop()

	// Faults hit dispatches only: health probes stay clean so recovery
	// timing measures the prober, not the injector.
	nc := chaos.NewNetChaos(nil, seed, prob)
	nc.Only = func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/analyze") }
	reg := obs.NewRegistry()
	pctx, cancelProber := context.WithCancel(ctx)
	defer cancelProber()
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Nodes:  fl.urls,
		Client: &http.Client{Transport: nc},
		Policy: fleet.Policy{
			DispatchTimeout: 2 * time.Minute,
			NodeRetries:     2,
			HedgeAfter:      400 * time.Millisecond,
			ProbeInterval:   100 * time.Millisecond,
			RetryBase:       10 * time.Millisecond,
			RetryCap:        250 * time.Millisecond,
			MaxRetryAfter:   250 * time.Millisecond,
		},
		Local: fleet.NewLocalAnalyzer(fleet.LocalConfig{Workers: jobs}),
	})
	cm := fleet.NewMetrics(reg, coord.Ring())
	coord.SetMetrics(cm)
	coord.StartProber(pctx)
	fl.coord, fl.cm = coord, cm

	chaosTable, chaosDur, chaosLoops, err := fl.runSuite(ctx)
	if err != nil {
		return fmt.Errorf("fleet-bench: chaos suite: %w", err)
	}

	// Kill the last worker, run a pass so the coordinator suspects it, then
	// restart it on the same address and time the prober's re-admission.
	victim := nodes - 1
	fl.kill(victim)
	killTable, _, _, err := fl.runSuite(ctx)
	if err != nil {
		return fmt.Errorf("fleet-bench: killed-worker suite: %w", err)
	}
	if err := fl.restart(ctx, victim, jobs); err != nil {
		return fmt.Errorf("fleet-bench: restart worker: %w", err)
	}
	rejoinStart := time.Now()
	for coord.Membership().State(fl.urls[victim]) != fleet.NodeLive {
		if time.Since(rejoinStart) > 30*time.Second {
			return fmt.Errorf("fleet-bench: restarted worker %s never rejoined", fl.urls[victim])
		}
		time.Sleep(10 * time.Millisecond)
	}
	recovery := time.Since(rejoinStart)
	rejoinTable, _, _, err := fl.runSuite(ctx)
	if err != nil {
		return fmt.Errorf("fleet-bench: rejoined suite: %w", err)
	}

	// Blackout: every worker dead. The coordinator must finish the suite
	// in-process through the local fallback.
	fl.stop()
	blackStart := time.Now()
	blackTable, _, _, err := fl.runSuite(ctx)
	if err != nil {
		return fmt.Errorf("fleet-bench: blackout suite: %w", err)
	}
	blackDur := time.Since(blackStart)

	identical := chaosTable == refTable && killTable == refTable &&
		rejoinTable == refTable && blackTable == refTable
	fmt.Printf("fleet-bench -chaos: %d nodes, %d loops, seed %d, fault prob %.2f, %s\n",
		nodes, chaosLoops, seed, prob, runtime.Version())
	fmt.Printf("  chaos %.2fs (%d faults injected)  recovery %.3fs  blackout %.2fs\n",
		chaosDur.Seconds(), nc.Faults(), recovery.Seconds(), blackDur.Seconds())
	fmt.Printf("  retries %d  hedges %d (wins %d)  re-dispatches %d  rejoins %d\n",
		cm.NodeRetries.Value(), cm.Hedges.Value(), cm.HedgeWins.Value(), cm.Redispatches.Value(), cm.Rejoins.Value())
	fmt.Printf("  fallback runs %d covering %d loops  tables identical to single node: %v\n",
		cm.FallbackRuns.Value(), cm.FallbackLoops.Value(), identical)
	if !identical {
		return fmt.Errorf("fleet-bench: chaos verdict tables diverged from the single-node reference")
	}
	return nil
}

// benchFleet is an in-process fleet: N worker servers on loopback
// listeners, each with a memory-only verdict cache wrapped in the peer
// protocol, and one coordinator routing over all of them.
type benchFleet struct {
	workers     []*server.Server
	cancels     []context.CancelFunc
	urls        []string
	coord       *fleet.Coordinator
	cm          *fleet.Metrics
	lastReplays int
}

func newBenchFleet(ctx context.Context, n, jobs int) (*benchFleet, error) {
	f := &benchFleet{}
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		listeners[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		c, err := cache.Open("", 0, core.CacheRecordVersion)
		if err != nil {
			f.stop()
			return nil, err
		}
		cfg := server.Config{
			Workers:   jobs,
			Cache:     c,
			PeerNodes: f.urls,
			PeerSelf:  f.urls[i],
		}
		srv := server.New(cfg)
		wctx, cancel := context.WithCancel(ctx)
		f.workers = append(f.workers, srv)
		f.cancels = append(f.cancels, cancel)
		go srv.Serve(wctx, listeners[i])
	}
	reg := obs.NewRegistry()
	f.coord = fleet.NewCoordinator(fleet.CoordinatorConfig{Nodes: f.urls})
	f.cm = fleet.NewMetrics(reg, f.coord.Ring())
	f.coord.SetMetrics(f.cm)
	return f, nil
}

// kill shuts one worker down; its listener closes, so subsequent
// dispatches and peer lookups fail over.
func (f *benchFleet) kill(i int) {
	if i < len(f.cancels) && f.cancels[i] != nil {
		f.cancels[i]()
		f.cancels[i] = nil
	}
}

// restart boots a fresh worker on a killed slot's original address (the
// ring routes by URL, so the address must be reused). The old listener
// needs a moment to release the port after its drain.
func (f *benchFleet) restart(ctx context.Context, i, jobs int) error {
	addr := strings.TrimPrefix(f.urls[i], "http://")
	var ln net.Listener
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		ln.Close()
		return err
	}
	srv := server.New(server.Config{
		Workers:   jobs,
		Cache:     c,
		PeerNodes: f.urls,
		PeerSelf:  f.urls[i],
	})
	wctx, cancel := context.WithCancel(ctx)
	f.workers[i] = srv
	f.cancels[i] = cancel
	go srv.Serve(wctx, ln)
	return nil
}

func (f *benchFleet) stop() {
	for i := range f.cancels {
		f.kill(i)
	}
}

// runSuite pushes every NPB spec through the coordinator and renders the
// verdict table: one line per loop with function, index, verdict, and
// reason — everything deterministic, nothing timing- or
// provenance-dependent — so tables compare byte-for-byte across fleet
// sizes and cache states.
func (f *benchFleet) runSuite(ctx context.Context) (table string, dur time.Duration, loops int, err error) {
	start := time.Now()
	var b strings.Builder
	f.lastReplays = 0
	for _, spec := range npb.Specs() {
		src := spec.Source()
		name := spec.Name + ".mc"
		prog, err := irbuild.Compile(name, src)
		if err != nil {
			return "", 0, 0, fmt.Errorf("%s: compile: %w", spec.Name, err)
		}
		rep, err := f.coord.Analyze(ctx, prog, name, src, fleet.Knobs{Schedules: 1}, nil)
		if err != nil {
			return "", 0, 0, fmt.Errorf("%s: %w", spec.Name, err)
		}
		for _, l := range rep.Loops {
			fmt.Fprintf(&b, "%s %-40s #%-3d %-18s %s\n", spec.Name, l.Fn, l.Index, l.Verdict, l.Reason)
			loops++
		}
		f.lastReplays += rep.Replays
	}
	return b.String(), time.Since(start), loops, nil
}
