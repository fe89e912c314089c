package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dca/internal/cfg"
	"dca/internal/core"
	"dca/internal/fingerprint"
	"dca/internal/ir"
	"dca/internal/obs"
)

// workerRequest is the worker-side /analyze body: the server's
// AnalyzeRequest schema, redeclared here so fleet never imports
// internal/server (the server imports fleet).
type workerRequest struct {
	Filename string `json:"filename,omitempty"`
	Source   string `json:"source"`
	Knobs
	Loops []LoopRef `json:"loops,omitempty"`
}

type workerResponse struct {
	Report *core.ReportJSON `json:"report"`
	Error  string           `json:"error"`
}

// maxWorkerResponse caps a worker response body (reports are bounded by
// the loop count, but a confused peer must not balloon memory).
const maxWorkerResponse = 64 << 20

// Coordinator shards a program's loops across the fleet's workers and
// merges their verdicts back into one deterministic report. Its failure
// handling is governed by a Policy (attempt timeouts, same-node retries,
// hedging, backoff) and a Membership lifecycle (failed nodes leave
// rotation, the prober brings them back); when the whole fleet is down it
// degrades to in-process analysis through its LocalAnalyzer — the fleet
// is an accelerator, never a single point of failure.
type Coordinator struct {
	ring    *Ring
	client  *http.Client
	m       *Metrics
	trace   obs.Sink
	policy  Policy
	jitter  func(int64) int64
	members *Membership
	local   LocalAnalyzer

	proberOn atomic.Bool
}

// CoordinatorConfig assembles a Coordinator.
type CoordinatorConfig struct {
	// Nodes are the worker base URLs ("http://host:port"). Required.
	Nodes []string
	// Client overrides the HTTP client used for dispatch; nil means a
	// client with no overall timeout — per-attempt clocks come from
	// Policy.DispatchTimeout, and batches are otherwise bounded by the
	// request context (suites can run for minutes).
	Client *http.Client
	// Metrics receives dispatch and re-dispatch counts; nil counts into a
	// private registry (SetMetrics can attach shared ones later).
	Metrics *Metrics
	// Trace, when non-nil, receives one StageFleet event per batch
	// dispatch outcome, retry, hedge, rejoin, and fallback.
	Trace obs.Sink
	// Policy tunes the dispatch resilience knobs; the zero value gets
	// production defaults.
	Policy Policy
	// Local, when non-nil, is the graceful-degradation path: with every
	// worker out of rotation the coordinator analyzes the remaining loops
	// in-process instead of failing the run.
	Local LocalAnalyzer
}

// NewCoordinator builds a coordinator over the given worker nodes.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	policy := cfg.Policy.withDefaults()
	jitter := policy.Jitter
	if jitter == nil {
		jitter = rand.Int63n
	}
	ring := NewRing(cfg.Nodes)
	m := cfg.Metrics
	if m == nil {
		m = NewMetrics(obs.NewRegistry(), ring)
	}
	c := &Coordinator{
		ring:   ring,
		client: client,
		m:      m,
		trace:  cfg.Trace,
		policy: policy,
		jitter: jitter,
		local:  cfg.Local,
	}
	c.members = newMembership(c.ring.Nodes(), policy.ProbeInterval, policy.ProbeBackoffCap, jitter)
	return c
}

// Ring exposes the coordinator's dispatch ring (shared with metrics and
// the peer cache when the process is both coordinator and worker).
func (c *Coordinator) Ring() *Ring { return c.ring }

// Membership exposes the node lifecycle tracker — gauges sample it and
// tests assert on it.
func (c *Coordinator) Membership() *Membership { return c.members }

// SetMetrics attaches the fleet instruments after construction — the
// server builds the coordinator first so the ring-size gauge can sample
// its ring, then hands the registered metrics back. Call before Analyze.
func (c *Coordinator) SetMetrics(m *Metrics) { c.m = m }

// StartProber launches the background health prober: out-of-rotation
// nodes are probed on an exponential, jittered backoff and re-admitted
// the moment /healthz answers — mid-run and across runs alike. The
// prober stops when ctx is cancelled; starting twice is a no-op while
// the first prober lives.
func (c *Coordinator) StartProber(ctx context.Context) {
	if c.proberOn.Swap(true) {
		return
	}
	go func() {
		defer c.proberOn.Store(false)
		t := time.NewTicker(c.policy.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.probeDue(ctx)
			}
		}
	}()
}

// probeDue probes every out-of-rotation node whose backoff has elapsed,
// concurrently, each under the probe timeout. Successes rejoin the ring;
// failures double the node's backoff.
func (c *Coordinator) probeDue(ctx context.Context) {
	due := c.members.due(time.Now())
	if len(due) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, node := range due {
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			err := c.probeNode(ctx, node)
			c.m.Probes.Inc()
			if err != nil {
				c.m.ProbeFailures.Inc()
				c.members.probeFailed(node)
				return
			}
			c.admit(node)
		}(node)
	}
	wg.Wait()
}

// admit returns a node to rotation, counting and tracing the rejoin
// exactly once per transition.
func (c *Coordinator) admit(node string) {
	if !c.members.MarkLive(node) {
		return
	}
	c.m.Rejoins.Inc()
	c.emit(obs.Event{Outcome: obs.OutcomeRejoin, Reason: node})
}

// emit traces one StageFleet event.
func (c *Coordinator) emit(ev obs.Event) {
	if c.trace != nil {
		ev.Stage = obs.StageFleet
		c.trace.Emit(ev)
	}
}

// probeNode performs one /healthz probe under the policy's probe timeout.
func (c *Coordinator) probeNode(ctx context.Context, node string) error {
	pctx, cancel := context.WithTimeout(ctx, c.policy.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, node+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// EnumerateLoops lists a program's loops in report order — sorted by
// function name, then loop index, exactly like core.Analyze's output. The
// registry seeds its source-ordered stream from this list, and the
// coordinator merges worker verdicts back into it.
func EnumerateLoops(prog *ir.Program) []LoopRef {
	var refs []LoopRef
	for _, fn := range prog.Funcs {
		_, loops := cfg.LoopsOf(fn)
		for _, loop := range loops {
			refs = append(refs, LoopRef{Fn: fn.Name, Index: loop.Index})
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Fn != refs[j].Fn {
			return refs[i].Fn < refs[j].Fn
		}
		return refs[i].Index < refs[j].Index
	})
	return refs
}

// Health probes every node's /healthz concurrently, each under the
// policy's probe timeout, returning the nodes that failed (missing
// entries are healthy). One hung node costs one probe timeout, not the
// whole seeding pass.
func (c *Coordinator) Health(ctx context.Context) map[string]error {
	var mu sync.Mutex
	bad := make(map[string]error)
	var wg sync.WaitGroup
	for _, n := range c.ring.Nodes() {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			if err := c.probeNode(ctx, n); err != nil {
				mu.Lock()
				bad[n] = err
				mu.Unlock()
			}
		}(n)
	}
	wg.Wait()
	return bad
}

// ProgramError is a worker's 4xx verdict on the dispatched program itself
// (compile failure, reference-execution trap, invalid knobs). It is the
// program's fault, not the worker's: re-dispatching to another node would
// fail identically, so the coordinator aborts the run instead of marking
// nodes dead one by one.
type ProgramError struct {
	Node string
	Msg  string
}

func (e *ProgramError) Error() string { return e.Msg }

// Analyze shards prog's loops across the fleet and merges the verdicts
// into one report whose loop order, summary, and totals are byte-identical
// (modulo timing) to a single node analyzing the whole program.
//
// A verdict is a deterministic function of the loop, its schedules and its
// budgets, so a batch can be re-issued anywhere and the first result kept.
// The run is one loop over a deadline-ordered queue of attempts, each
// naming pending loops, a target node and an earliest start, and settle
// alone decides what follows an attempt: a same-node retry after the
// decorrelated backoff (or a shedding worker's capped Retry-After), the
// ring successors once the node's retries are spent, a hedge to the
// successor after HedgeAfter, the LocalAnalyzer when no node is live, or
// an abort on a program error. Each loop has a worker-attempt budget, so a
// worker that answers 200 while omitting loops, or a node that flaps
// between failed dispatches and passing probes, cannot spin the run.
// onLoop, when non-nil, receives every merged loop verdict exactly once,
// as it lands.
func (c *Coordinator) Analyze(ctx context.Context, prog *ir.Program, filename, source string, knobs Knobs, onLoop func(core.LoopJSON)) (*core.ReportJSON, error) {
	start := time.Now()
	refs := EnumerateLoops(prog)
	ctx, cancel := context.WithCancel(ctx)
	r := &run{
		c: c, ctx: ctx, prog: prog, filename: filename, source: source, knobs: knobs, onLoop: onLoop,
		router:   fingerprint.NewRouter(prog),
		results:  make(map[LoopRef]core.LoopJSON, len(refs)),
		attempts: make(map[LoopRef]int, len(refs)),
		local:    make(map[LoopRef]bool),
		running:  make(map[*attempt]bool),
		out:      make(chan outcome),
	}
	defer r.wg.Wait()
	defer cancel() // stops every attempt still in flight
	if err := r.place(refs, "", false, start); err != nil {
		return nil, err
	}
	for len(r.results) < len(refs) {
		now := time.Now()
		for len(r.queue) > 0 && !r.queue[0].at.After(now) {
			w := r.queue[0]
			r.queue = r.queue[1:]
			if !w.hedge {
				r.launch(w.a, now)
			} else if err := r.settle(w.a, nil); err != nil {
				return nil, err
			}
		}
		var timer *time.Timer
		var due <-chan time.Time
		if len(r.queue) > 0 {
			timer = time.NewTimer(r.queue[0].at.Sub(now))
			due = timer.C
		}
		var err error
		select {
		case o := <-r.out:
			err = r.settle(o.a, &o)
		case <-due:
		case <-ctx.Done():
			err = cancelled(ctx)
		}
		if timer != nil {
			timer.Stop()
		}
		if err != nil {
			return nil, err
		}
	}
	return mergeReport(refs, r.results, time.Since(start)), nil
}

// run is one Analyze call's dispatch state, owned by its loop goroutine.
type run struct {
	c                *Coordinator
	ctx              context.Context
	prog             *ir.Program
	filename, source string
	knobs            Knobs
	onLoop           func(core.LoopJSON)

	router   *fingerprint.Router       // a loop's ring route key
	results  map[LoopRef]core.LoopJSON // merged verdicts; first result wins
	attempts map[LoopRef]int           // worker attempts launched per loop
	local    map[LoopRef]bool          // loops handed to the local fallback
	running  map[*attempt]bool         // started and not settled for good
	queue    []wake                    // ordered by at, FIFO among equal deadlines
	out      chan outcome
	wg       sync.WaitGroup // attempt goroutines
}

// attempt is one dispatch of pending loops to one node ("" is the
// in-process fallback). A same-node retry re-queues the attempt itself, so
// its try count and backoff travel with it.
type attempt struct {
	refs    []LoopRef
	node    string
	hedge   bool // a straggler re-issue; never hedged itself
	try     int
	backoff time.Duration
	cancel  context.CancelFunc
}

// wake is a queued deadline: an attempt's start or, for a fresh worker
// placement with hedging on, its hedge deadline.
type wake struct {
	at    time.Time
	a     *attempt
	hedge bool
}

// outcome is what an attempt reports: its rows or the error that ended
// it, or (partial) one row the local fallback streamed while running.
type outcome struct {
	a          *attempt
	rows       []core.LoopJSON
	retryAfter time.Duration
	err        error
	partial    bool
}

func (r *run) push(w wake) {
	i := sort.Search(len(r.queue), func(i int) bool { return r.queue[i].at.After(w.at) })
	r.queue = slices.Insert(r.queue, i, w)
}

// send reports to the run loop, or gives up once the run has returned.
func (r *run) send(o outcome) {
	select {
	case r.out <- o:
	case <-r.ctx.Done():
	}
}

// pending filters refs down to the loops with no merged verdict yet.
func (r *run) pending(refs []LoopRef) []LoopRef {
	var left []LoopRef
	for _, ref := range refs {
		if _, done := r.results[ref]; !done {
			left = append(left, ref)
		}
	}
	return left
}

// place routes loops onto the live ring, skipping exclude (the node they
// just failed on, or the primary a hedge shadows), and queues one attempt
// per owner to start at `at`. Loops no live node owns go to the local
// fallback, except for a hedge, which leaves them with its primary.
func (r *run) place(refs []LoopRef, exclude string, hedge bool, at time.Time) error {
	if !r.c.proberOn.Load() {
		// No background prober (bare coordinator): probe due nodes inline
		// so a recovered worker still rejoins across and within runs.
		r.c.probeDue(r.ctx)
	}
	excluded := r.c.members.Excluded()
	if exclude != "" {
		excluded[exclude] = true
	}
	batches := make(map[string][]LoopRef)
	var orphans []LoopRef
	for _, ref := range refs {
		if owner := r.c.ring.Owner(r.router.Route(ref.Fn, ref.Index).String(), excluded); owner != "" {
			batches[owner] = append(batches[owner], ref)
		} else {
			orphans = append(orphans, ref)
		}
	}
	for node, batch := range batches {
		if hedge {
			r.c.m.Hedges.Inc()
			r.c.emit(obs.Event{Outcome: obs.OutcomeHedged, Reason: exclude + " -> " + node})
		}
		r.push(wake{at: at, a: &attempt{refs: batch, node: node, hedge: hedge}})
	}
	if len(orphans) == 0 || hedge {
		return nil
	}
	return r.fallback(orphans, fmt.Errorf("fleet: no live workers (%d/%d nodes out of rotation)", len(excluded), r.c.ring.Size()))
}

// fallback hands loops to the in-process analyzer, at most once per loop:
// its verdicts are final. Without a LocalAnalyzer, noLocal ends the run.
func (r *run) fallback(refs []LoopRef, noLocal error) error {
	if r.c.local == nil {
		return noLocal
	}
	var fresh []LoopRef
	for _, ref := range refs {
		if !r.local[ref] {
			r.local[ref] = true
			fresh = append(fresh, ref)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	r.c.m.FallbackRuns.Inc()
	r.c.m.FallbackLoops.Add(uint64(len(fresh)))
	r.c.emit(obs.Event{Outcome: obs.OutcomeFallback, Reason: fmt.Sprintf("%d loops analyzed in-process", len(fresh))})
	r.push(wake{at: time.Now(), a: &attempt{refs: fresh}})
	return nil
}

// launch starts a due attempt on whichever of its loops are still pending.
func (r *run) launch(a *attempt, now time.Time) {
	if a.refs = r.pending(a.refs); len(a.refs) == 0 {
		delete(r.running, a)
		return
	}
	ctx, cancel := context.WithCancel(r.ctx)
	a.cancel = cancel
	r.running[a] = true
	node, refs := a.node, a.refs
	r.wg.Add(1)
	if node == "" {
		go r.analyzeLocal(ctx, a, refs)
		return
	}
	for _, ref := range refs {
		r.attempts[ref]++
	}
	if a.try == 0 {
		r.c.m.Dispatches.Inc(node)
		if !a.hedge && r.c.policy.HedgeAfter > 0 {
			r.push(wake{at: now.Add(r.c.policy.HedgeAfter), a: a, hedge: true})
		}
	}
	go func() {
		defer r.wg.Done()
		if d := r.c.policy.DispatchTimeout; d > 0 {
			var stop context.CancelFunc
			ctx, stop = context.WithTimeout(ctx, d)
			defer stop()
		}
		rep, ra, err := r.c.dispatch(ctx, node, r.filename, r.source, r.knobs, refs)
		o := outcome{a: a, retryAfter: ra, err: err}
		if rep != nil {
			o.rows = rep.Loops
		}
		r.send(o)
	}()
}

// analyzeLocal runs a fallback attempt, streaming each row to the run loop
// as it completes.
func (r *run) analyzeLocal(ctx context.Context, a *attempt, refs []LoopRef) {
	defer r.wg.Done()
	rows, err := r.c.local(ctx, r.prog, r.knobs, refs, func(lj core.LoopJSON) {
		r.send(outcome{a: a, rows: []core.LoopJSON{lj}, partial: true})
	})
	o := outcome{a: a}
	if err != nil {
		// The local reference execution failed; every worker would have
		// agreed, so this is the program's fault, exactly like a 4xx.
		o.err = &ProgramError{Node: "local", Msg: err.Error()}
	}
	for _, ref := range refs {
		if lj, ok := rows[ref]; ok {
			o.rows = append(o.rows, lj)
		}
	}
	r.send(o)
}

// merge records an attempt's rows (first result wins, and a worker never
// widens its batch) and streams each new verdict to onLoop.
func (r *run) merge(a *attempt, rows []core.LoopJSON) {
	for _, lj := range rows {
		ref := LoopRef{Fn: lj.Fn, Index: lj.Index}
		if _, dup := r.results[ref]; dup || !slices.Contains(a.refs, ref) {
			continue
		}
		r.results[ref] = lj
		if r.onLoop != nil {
			r.onLoop(lj)
		}
	}
}

// exhausted reports whether any of refs has spent its worker-attempt
// budget: a full retry series on every node, plus two series to spare for
// hedges and re-admitted nodes.
func (r *run) exhausted(refs []LoopRef) bool {
	budget := (r.c.policy.NodeRetries + 1) * (r.c.ring.Size() + 2)
	for _, ref := range refs {
		if r.attempts[ref] >= budget {
			return true
		}
	}
	return false
}

// settle is the run's one re-issue decision. Given an attempt and how it
// ended, or a nil outcome when a fresh placement is still unfinished at
// its hedge deadline, it merges what landed and decides what follows for
// the loops still pending: a hedge to the ring successors, the same node
// again after backoff, the ring successors, the local fallback, or an
// abort. It is safe by verdict determinism: semantics are at-least-once
// and the first result wins on merge.
func (r *run) settle(a *attempt, o *outcome) error {
	if r.ctx.Err() != nil {
		// Engine cancellation yields Cancelled rows, which a healthy run
		// would never merge; surface the cancellation instead.
		return cancelled(r.ctx)
	}
	if o == nil {
		if left := r.pending(a.refs); r.running[a] && len(left) > 0 {
			return r.place(left, a.node, true, time.Now())
		}
		return nil
	}
	if o.partial {
		r.merge(a, o.rows)
		return nil
	}
	a.cancel()
	delete(r.running, a)
	if o.err == nil && a.node != "" {
		// A successful dispatch is a successful probe: a node another run
		// suspected moments ago has just proven itself.
		r.c.admit(a.node)
	}
	left := r.pending(a.refs)
	if len(left) == 0 {
		return nil // every loop landed elsewhere first
	}
	var perr *ProgramError
	if errors.As(o.err, &perr) {
		return o.err // the program's fault: every node would agree
	}
	p := r.c.policy

	if o.err == nil {
		r.merge(a, o.rows)
		if a.node != "" {
			r.c.emit(obs.Event{Outcome: obs.OutcomeOK})
		}
		if a.hedge {
			r.c.m.HedgeWins.Inc()
		}
		for b := range r.running {
			if len(r.pending(b.refs)) == 0 {
				b.cancel()
			}
		}
		if left = r.pending(left); len(left) == 0 {
			return nil
		}
		if a.node == "" {
			return fmt.Errorf("fleet: local fallback produced no verdict for %s #%d", left[0].Fn, left[0].Index)
		}
		// The worker answered 200 but omitted loops: place them again
		// after a backoff, until their budget runs out.
		if r.exhausted(left) {
			return r.fallback(left, fmt.Errorf("fleet: %d loops missing from worker reports", len(left)))
		}
		return r.place(left, "", false, time.Now().Add(p.backoffStep(r.c.jitter, a.backoff)))
	}

	// A transient failure (transport error, 5xx, timeout): the node's fault.
	if r.exhausted(left) {
		return r.fallback(left, fmt.Errorf("fleet: %d loops still pending after their attempt budget: %w", len(left), o.err))
	}
	if a.try < p.NodeRetries {
		a.try++
		a.backoff = p.backoffStep(r.c.jitter, a.backoff)
		wait := max(a.backoff, min(o.retryAfter, p.MaxRetryAfter))
		r.c.m.NodeRetries.Inc()
		r.c.emit(obs.Event{Outcome: obs.OutcomeRetry, Reason: a.node})
		a.refs, r.running[a] = left, true
		r.push(wake{at: time.Now().Add(wait), a: a})
		return nil
	}
	r.c.members.Suspect(a.node)
	r.c.m.Redispatches.Inc()
	r.c.emit(obs.Event{Outcome: obs.OutcomeError, Err: o.err.Error()})
	return r.place(left, a.node, false, time.Now())
}

func cancelled(ctx context.Context) error {
	return fmt.Errorf("fleet: analysis cancelled: %w", context.Cause(ctx))
}

// dispatch sends one batch to one worker and decodes its report. Any
// non-200 status — including a 503 shed — is a failed attempt; a 503's
// Retry-After hint is returned so the caller can honor it.
func (c *Coordinator) dispatch(ctx context.Context, node, filename, source string, knobs Knobs, batch []LoopRef) (*core.ReportJSON, time.Duration, error) {
	body, err := json.Marshal(workerRequest{Filename: filename, Source: source, Knobs: knobs, Loops: batch})
	if err != nil {
		return nil, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", node, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxWorkerResponse))
	if err != nil {
		return nil, 0, fmt.Errorf("%s: read response: %w", node, err)
	}
	if resp.StatusCode != http.StatusOK {
		var wr workerResponse
		msg := resp.Status
		if json.Unmarshal(data, &wr) == nil && wr.Error != "" {
			msg = wr.Error
		}
		// 4xx means the program (or the forwarded knobs) is at fault and
		// every node would agree; 5xx and transport errors mean this node is.
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return nil, 0, &ProgramError{Node: node, Msg: msg}
		}
		var ra time.Duration
		if resp.StatusCode == http.StatusServiceUnavailable {
			if secs, aerr := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); aerr == nil && secs > 0 {
				ra = time.Duration(secs) * time.Second
			}
		}
		return nil, ra, fmt.Errorf("%s: %s: %s", node, resp.Status, msg)
	}
	var wr workerResponse
	if err := json.Unmarshal(data, &wr); err != nil {
		return nil, 0, fmt.Errorf("%s: decode response: %w", node, err)
	}
	if wr.Report == nil {
		return nil, 0, fmt.Errorf("%s: response carried no report", node)
	}
	return wr.Report, 0, nil
}

// mergeReport assembles the fleet report: loops in report order, summary
// and totals recomputed from the merged loops — the same arithmetic
// core.Report.JSON applies, so N workers and one worker render the same
// bytes (timing aside).
func mergeReport(refs []LoopRef, results map[LoopRef]core.LoopJSON, elapsed time.Duration) *core.ReportJSON {
	rep := &core.ReportJSON{
		Loops:          make([]core.LoopJSON, 0, len(refs)),
		Summary:        map[string]int{},
		TotalLoops:     len(refs),
		ElapsedSeconds: elapsed.Seconds(),
	}
	for _, ref := range refs {
		lj := results[ref]
		rep.Loops = append(rep.Loops, lj)
		rep.Summary[lj.Verdict]++
		if lj.Verdict == core.Commutative.String() {
			rep.Commutative++
		}
		switch lj.Provenance {
		case core.ProvenanceCached:
			rep.CachedLoops++
		case core.ProvenanceJournaled:
			rep.ResumedLoops++
		}
		rep.Replays += lj.Replays
	}
	return rep
}
