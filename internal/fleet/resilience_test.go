// Tests for the dispatch-policy and membership half of fleet resilience:
// bounded no-progress rounds, Retry-After honoring, hedged dispatch,
// prober-driven rejoin, and the parallel health sweep.
package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dca/internal/cache"
	"dca/internal/core"
	"dca/internal/fingerprint"
	"dca/internal/fleet"
	"dca/internal/ir"
	"dca/internal/irbuild"
	"dca/internal/obs"
	"dca/internal/server"
)

// newMetrics builds a standalone fleet.Metrics for a hand-built
// coordinator.
func newMetrics(nodes []string) *fleet.Metrics {
	return fleet.NewMetrics(obs.NewRegistry(), fleet.NewRing(nodes))
}

// fastPolicy keeps test wall-clock tight; probes are effectively off so
// membership decisions stay where the test put them.
func fastPolicy() fleet.Policy {
	return fleet.Policy{
		NodeRetries:   0,
		RetryBase:     time.Millisecond,
		RetryCap:      5 * time.Millisecond,
		ProbeInterval: time.Hour,
	}
}

// deadAddr returns a loopback address with nothing listening on it.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

// TestFleetNoProgressBounded is the regression test for the infinite
// re-dispatch loop: a worker that answers 200 while omitting its loops,
// combined with a dead node, used to spin the coordinator forever (the
// missing-loops guard only fired when no node had died). Now the run must
// error out in bounded time regardless of the dead set.
func TestFleetNoProgressBounded(t *testing.T) {
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"report":{"loops":[],"summary":{},"total_loops":0}}`)
	}))
	defer empty.Close()

	nodes := []string{empty.URL, deadAddr(t)}
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{Nodes: nodes, Policy: fastPolicy()})
	coord.SetMetrics(newMetrics(nodes))

	prog, err := irbuild.Compile("fleet.mc", fleetSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = coord.Analyze(ctx, prog, "fleet.mc", fleetSrc, fleet.Knobs{Schedules: 1}, nil)
	if err == nil {
		t.Fatal("analyze against a loop-omitting worker succeeded")
	}
	if ctx.Err() != nil {
		t.Fatalf("coordinator spun until the test deadline: %v", err)
	}
	if !strings.Contains(err.Error(), "missing from worker reports") {
		t.Errorf("error = %v, want the missing-loops guard", err)
	}
}

// TestFleetRetryAfterHonored: a worker that sheds with 503 + Retry-After
// is retried on the same node no sooner than its hint — the coordinator
// used to re-arrive immediately, straight back into the overload.
func TestFleetRetryAfterHonored(t *testing.T) {
	single := newTestFleet(t, 1)
	_, want := single.analyze(t)
	single.stop()

	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	worker := server.New(server.Config{Workers: 2, Cache: c})
	var sheds atomic.Int32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && sheds.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"shedding"}`)
			return
		}
		worker.Handler().ServeHTTP(w, r)
	}))
	defer stub.Close()

	nodes := []string{stub.URL}
	policy := fastPolicy()
	policy.NodeRetries = 1
	m := newMetrics(nodes)
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{Nodes: nodes, Policy: policy})
	coord.SetMetrics(m)

	prog, err := irbuild.Compile("fleet.mc", fleetSrc)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := coord.Analyze(context.Background(), prog, "fleet.mc", fleetSrc, fleet.Knobs{Schedules: 1}, nil)
	if err != nil {
		t.Fatalf("analyze through a shedding worker: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Errorf("retry re-arrived after %v; Retry-After of 1s was not honored", elapsed)
	}
	if got := renderTable(rep); got != want {
		t.Errorf("table after shed+retry diverged:\n--- healthy ---\n%s--- got ---\n%s", want, got)
	}
	if m.NodeRetries.Value() == 0 {
		t.Error("no same-node retries counted")
	}
}

// TestFleetHedgedDispatch: a straggling worker's batch is re-issued to
// the ring successor after the hedge delay and the successor's result
// wins, so one slow node costs the hedge delay, not its full stall.
func TestFleetHedgedDispatch(t *testing.T) {
	single := newTestFleet(t, 1)
	_, want := single.analyze(t)
	single.stop()

	prog, err := irbuild.Compile("fleet.mc", fleetSrc)
	if err != nil {
		t.Fatal(err)
	}
	refs := fleet.EnumerateLoops(prog)

	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	worker := server.New(server.Config{Workers: 2, Cache: c})
	const stall = 3 * time.Second

	// Retry listener pairs until the ring splits the loops across both
	// nodes, so the slow node is guaranteed a batch to straggle on.
	var urls []string
	var listeners []net.Listener
	for attempt := 0; attempt < 50; attempt++ {
		listeners = nil
		urls = nil
		for i := 0; i < 2; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			listeners = append(listeners, ln)
			urls = append(urls, "http://"+ln.Addr().String())
		}
		ring := fleet.NewRing(urls)
		route := routerFor(prog)
		owners := map[string]bool{}
		for _, ref := range refs {
			owners[ring.Owner(route(ref), nil)] = true
		}
		if len(owners) == 2 {
			break
		}
		for _, ln := range listeners {
			ln.Close()
		}
		listeners = nil
	}
	if listeners == nil {
		t.Fatal("ring never split the loops across both nodes")
	}

	// Node 0 straggles on every dispatch; node 1 serves promptly.
	slow := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			time.Sleep(stall)
		}
		worker.Handler().ServeHTTP(w, r)
	})}
	fast := &http.Server{Handler: worker.Handler()}
	go slow.Serve(listeners[0])
	go fast.Serve(listeners[1])
	t.Cleanup(func() { slow.Close(); fast.Close() })

	policy := fastPolicy()
	policy.HedgeAfter = 100 * time.Millisecond
	m := newMetrics(urls)
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{Nodes: urls, Policy: policy})
	coord.SetMetrics(m)

	start := time.Now()
	rep, err := coord.Analyze(context.Background(), prog, "fleet.mc", fleetSrc, fleet.Knobs{Schedules: 1}, nil)
	if err != nil {
		t.Fatalf("analyze with a straggling worker: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= stall {
		t.Errorf("run took %v, at least the full stall; hedging bought nothing", elapsed)
	}
	if got := renderTable(rep); got != want {
		t.Errorf("hedged table diverged:\n--- healthy ---\n%s--- got ---\n%s", want, got)
	}
	if m.Hedges.Value() == 0 {
		t.Error("no hedges counted")
	}
	if m.HedgeWins.Value() == 0 {
		t.Error("no hedge wins counted")
	}
}

// TestFleetNoRoundBarrier: a failed batch is re-issued as soon as its
// node is given up on, not after the slowest healthy batch returns. One
// worker refuses connections, one holds its first batch for two seconds,
// and every loop the refusing worker owned must be merged before the held
// batch comes back.
func TestFleetNoRoundBarrier(t *testing.T) {
	single := newTestFleet(t, 1)
	_, want := single.analyze(t)
	single.stop()

	prog, err := irbuild.Compile("fleet.mc", fleetSrc)
	if err != nil {
		t.Fatal(err)
	}
	refs := fleet.EnumerateLoops(prog)
	route := routerFor(prog)

	// Node 0 refuses, node 1 holds, node 2 is healthy. Retry listener
	// triples until the ring gives both the refusing and the holding node
	// at least one loop.
	var urls []string
	var listeners []net.Listener
	var owned map[string][]fleet.LoopRef
	for attempt := 0; attempt < 100 && listeners == nil; attempt++ {
		urls = []string{deadAddr(t)}
		for i := 0; i < 2; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			listeners = append(listeners, ln)
			urls = append(urls, "http://"+ln.Addr().String())
		}
		ring := fleet.NewRing(urls)
		owned = map[string][]fleet.LoopRef{}
		for _, ref := range refs {
			owner := ring.Owner(route(ref), nil)
			owned[owner] = append(owned[owner], ref)
		}
		if len(owned[urls[0]]) == 0 || len(owned[urls[1]]) == 0 {
			for _, ln := range listeners {
				ln.Close()
			}
			listeners = nil
		}
	}
	if listeners == nil {
		t.Fatal("ring never gave both the refusing and the holding node a loop")
	}

	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	worker := server.New(server.Config{Workers: 2, Cache: c})
	const hold = 2 * time.Second
	var held atomic.Bool
	var released atomic.Int64 // unix nanos when the held batch is let go
	holding := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hold the node's own batch, never a re-issue of the refusing
		// node's loops, however the two arrive.
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req server.AnalyzeRequest
		if json.Unmarshal(body, &req) == nil && slices.Contains(req.Loops, owned[urls[1]][0]) && !held.Swap(true) {
			time.Sleep(hold)
			released.Store(time.Now().UnixNano())
		}
		worker.Handler().ServeHTTP(w, r)
	})}
	healthy := &http.Server{Handler: worker.Handler()}
	go holding.Serve(listeners[0])
	go healthy.Serve(listeners[1])
	t.Cleanup(func() { holding.Close(); healthy.Close() })

	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{Nodes: urls, Policy: fastPolicy()})
	coord.SetMetrics(newMetrics(urls))
	arrived := map[fleet.LoopRef]time.Time{}
	onLoop := func(lj core.LoopJSON) { arrived[fleet.LoopRef{Fn: lj.Fn, Index: lj.Index}] = time.Now() }
	rep, err := coord.Analyze(context.Background(), prog, "fleet.mc", fleetSrc, fleet.Knobs{Schedules: 1}, onLoop)
	if err != nil {
		t.Fatalf("analyze with a refusing and a holding worker: %v", err)
	}
	if got := renderTable(rep); got != want {
		t.Errorf("table diverged:\n--- single ---\n%s--- fleet ---\n%s", want, got)
	}
	if released.Load() == 0 {
		t.Fatal("the holding worker never received a batch")
	}
	release := time.Unix(0, released.Load())
	for _, ref := range owned[urls[0]] {
		at, ok := arrived[ref]
		if !ok {
			t.Fatalf("%s #%d never reached onLoop", ref.Fn, ref.Index)
		}
		if !at.Before(release) {
			t.Errorf("%s #%d (refusing node's) merged %v after the held batch returned; its re-issue waited on the slowest batch",
				ref.Fn, ref.Index, at.Sub(release))
		}
	}
}

// TestFleetProberRejoin: a worker that dies mid-fleet is suspected, the
// background prober re-admits it once it is back on the same address, and
// the next run dispatches to it again.
func TestFleetProberRejoin(t *testing.T) {
	single := newTestFleet(t, 1)
	_, want := single.analyze(t)
	single.stop()

	prog, err := irbuild.Compile("fleet.mc", fleetSrc)
	if err != nil {
		t.Fatal(err)
	}
	refs := fleet.EnumerateLoops(prog)
	route := routerFor(prog)

	// Routing hashes node URLs, so whether the victim owns any loops
	// depends on the ports the OS handed out; retry fleets until the ring
	// splits the program across both nodes, so killing node 1 is
	// guaranteed to fail a dispatch (and rejoining it to receive one).
	var f *testFleet
	for attempt := 0; ; attempt++ {
		f = newTestFleet(t, 2)
		ring := fleet.NewRing(f.urls)
		owners := map[string]bool{}
		for _, ref := range refs {
			owners[ring.Owner(route(ref), nil)] = true
		}
		if len(owners) == 2 {
			break
		}
		f.stop()
		if attempt >= 50 {
			t.Fatal("ring never split the loops across both nodes")
		}
	}

	policy := fastPolicy()
	policy.ProbeInterval = 20 * time.Millisecond
	m := newMetrics(f.urls)
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{Nodes: f.urls, Policy: policy})
	coord.SetMetrics(m)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord.StartProber(ctx)
	analyze := func() string {
		t.Helper()
		rep, err := coord.Analyze(context.Background(), prog, "fleet.mc", fleetSrc, fleet.Knobs{Schedules: 1}, nil)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		return renderTable(rep)
	}

	f.kill(1)
	time.Sleep(10 * time.Millisecond)
	if got := analyze(); got != want {
		t.Fatalf("table with worker 1 dead diverged:\n--- healthy ---\n%s--- got ---\n%s", want, got)
	}
	if got := coord.Membership().State(f.urls[1]); got == fleet.NodeLive {
		t.Fatal("killed worker still live after a failed run")
	}

	f.restart(t, 1)
	deadline := time.Now().Add(10 * time.Second)
	for coord.Membership().State(f.urls[1]) != fleet.NodeLive {
		if time.Now().After(deadline) {
			t.Fatal("restarted worker never rejoined the ring")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m.Rejoins.Value() == 0 {
		t.Error("no rejoins counted")
	}
	if m.Probes.Value() == 0 {
		t.Error("no probes counted")
	}
	if got := analyze(); got != want {
		t.Fatalf("table after rejoin diverged:\n--- healthy ---\n%s--- got ---\n%s", want, got)
	}
}

// TestFleetHealthParallel: one hung node must cost one probe timeout, not
// delay the whole sweep, and failures are reported per node.
func TestFleetHealthParallel(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer healthy.Close()
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Second)
	}))
	defer hang.Close()

	nodes := []string{healthy.URL, hang.URL, deadAddr(t)}
	policy := fastPolicy()
	policy.ProbeTimeout = 100 * time.Millisecond
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{Nodes: nodes, Policy: policy})

	start := time.Now()
	bad := coord.Health(context.Background())
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Errorf("health sweep took %v; probes did not run in parallel under the probe timeout", elapsed)
	}
	if len(bad) != 2 {
		t.Errorf("bad nodes = %v, want the hung and dead ones", bad)
	}
	if _, ok := bad[healthy.URL]; ok {
		t.Error("healthy node reported unhealthy")
	}
}

// routerFor returns the same loop → route-key mapping the coordinator
// uses, for ownership checks in tests.
func routerFor(prog *ir.Program) func(fleet.LoopRef) string {
	r := fingerprint.NewRouter(prog)
	return func(ref fleet.LoopRef) string { return r.Route(ref.Fn, ref.Index).String() }
}

// restart boots a fresh worker on a killed slot's original address so the
// prober can re-admit it (the ring routes by URL, so the address must be
// reused).
func (f *testFleet) restart(t *testing.T, i int) {
	t.Helper()
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
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	c, err := cache.Open("", 0, core.CacheRecordVersion)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{
		Workers:   2,
		Cache:     c,
		PeerNodes: f.urls,
		PeerSelf:  f.urls[i],
	})
	ctx, cancel := context.WithCancel(context.Background())
	f.workers[i] = srv
	f.cancels[i] = cancel
	go srv.Serve(ctx, ln)
}
