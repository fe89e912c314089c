package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dca/internal/cache"
	"dca/internal/core"
	"dca/internal/server"
	"dca/internal/workloads/npb"
)

// fleetNodes is the number of worker servers behind the coordinator.
const fleetNodes = 2

// fleetWarm is the warm-fleet workload: an in-process coordinator and two
// worker servers on loopback. Set-up starts them and fills the workers'
// verdict caches with one cold pass; each timed pass then submits the NPB
// programs one at a time as async runs, in a seed-shuffled order, and reads
// each run's NDJSON verdict stream to the end. One client, closed loop.
type fleetWarm struct {
	specs   []*npb.Spec
	rng     *rand.Rand
	ck      *checker
	tr      *tracer
	workDir string

	// The running fleet.
	stop      context.CancelFunc
	serving   sync.WaitGroup
	workers   []*server.Server
	stores    []*cache.Cache
	wrapped   []*timedCache
	coord     *server.Server
	coordURL  string
	transport *timedTransport
	client    *http.Client
	runDir    string

	layerM map[string]float64 // the last traced pass's layers
}

func newFleetWarm(names []string, seed int64, workDir string, ck *checker, tr *tracer) (*fleetWarm, error) {
	w := &fleetWarm{specs: npb.Specs(), rng: rand.New(rand.NewSource(seed)), ck: ck, tr: tr, workDir: workDir}
	if len(names) > 0 {
		w.specs = nil
		for _, name := range names {
			s := npb.SpecByName(name)
			if s == nil {
				return nil, fmt.Errorf("fleet-warm: unknown NPB program %q", name)
			}
			w.specs = append(w.specs, s)
		}
	}
	return w, nil
}

func (w *fleetWarm) units() []string {
	var names []string
	for _, s := range w.specs {
		names = append(names, s.Name)
	}
	return names
}

// setup replaces any running fleet with a fresh one and fills its caches
// with a cold pass.
func (w *fleetWarm) setup(ctx context.Context) error {
	w.close()
	if err := w.start(ctx); err != nil {
		w.close()
		return err
	}
	if _, err := w.pass(ctx, false); err != nil {
		return fmt.Errorf("fleet-warm: cold pass: %w", err)
	}
	return nil
}

func (w *fleetWarm) start(ctx context.Context) error {
	runDir, err := os.MkdirTemp(w.workDir, "fleet-runs-")
	if err != nil {
		return err
	}
	w.runDir = runDir
	lns := make([]net.Listener, fleetNodes+1)
	var urls []string
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return err
		}
		urls = append(urls, "http://"+lns[i].Addr().String())
	}
	nodes := urls[:fleetNodes]
	w.coordURL = urls[fleetNodes]

	sctx, stop := context.WithCancel(context.Background())
	w.stop = stop
	serve := func(s *server.Server, ln net.Listener) {
		w.serving.Add(1)
		go func() {
			defer w.serving.Done()
			s.Serve(sctx, ln)
		}()
	}
	for i, url := range nodes {
		store, err := cache.Open("", 0, core.CacheRecordVersion)
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			return err
		}
		cfg := server.Config{Workers: 1, Cache: store, PeerNodes: nodes, PeerSelf: url}
		if w.tr != nil {
			wc := &timedCache{inner: store, t: w.tr}
			w.wrapped = append(w.wrapped, wc)
			cfg.Cache = wc
			cfg.Trace = w.tr.sink(true)
		}
		s := server.New(cfg)
		w.stores = append(w.stores, store)
		w.workers = append(w.workers, s)
		serve(s, lns[i])
	}
	ccfg := server.Config{Fleet: nodes, RunDir: runDir}
	if w.tr != nil {
		w.transport = &timedTransport{base: http.DefaultTransport, t: w.tr}
		ccfg.FleetClient = &http.Client{Transport: w.transport}
		ccfg.Trace = w.tr.sink(false)
	}
	w.coord = server.New(ccfg)
	serve(w.coord, lns[fleetNodes])
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	return nil
}

// close stops the fleet and waits until every server has drained.
func (w *fleetWarm) close() {
	if w.stop == nil {
		return
	}
	w.stop()
	w.serving.Wait()
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.transport != nil {
		if t, ok := w.transport.base.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
	os.RemoveAll(w.runDir)
	w.stop, w.workers, w.stores, w.wrapped, w.coord, w.transport, w.client = nil, nil, nil, nil, nil, nil, nil
}

// streamLine is one NDJSON line of a run's event stream: a loop verdict,
// or the run's final status (recognisable by its state).
type streamLine struct {
	core.LoopJSON
	State string `json:"state"`
	Error string `json:"error"`
}

// runOutcome is one program's async run as the client saw it.
type runOutcome struct {
	loops        []core.LoopJSON
	latencyMS    []float64 // POST to each verdict line
	firstVerdict float64   // POST to the first verdict line
}

// analyze submits one program and reads its verdict stream to the end.
func (w *fleetWarm) analyze(ctx context.Context, spec *npb.Spec) (runOutcome, error) {
	var out runOutcome
	body, err := json.Marshal(server.AnalyzeRequest{Source: spec.Source(), Filename: spec.Name + ".mc"})
	if err != nil {
		return out, err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.coordURL+"/analyze?async=1", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return out, err
	}
	var handle struct {
		EventsURL  string `json:"events_url"`
		TotalLoops int    `json:"total_loops"`
	}
	err = json.NewDecoder(resp.Body).Decode(&handle)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return out, fmt.Errorf("%s: submit: status %d: %v", spec.Name, resp.StatusCode, err)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, w.coordURL+handle.EventsURL, nil)
	if err != nil {
		return out, err
	}
	if resp, err = w.client.Do(req); err != nil {
		return out, err
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var sl streamLine
			if jerr := json.Unmarshal(line, &sl); jerr != nil {
				return out, fmt.Errorf("%s: stream: %w", spec.Name, jerr)
			}
			if sl.State != "" {
				if sl.State != "done" {
					return out, fmt.Errorf("%s: run %s: %s", spec.Name, sl.State, sl.Error)
				}
				if len(out.loops) != handle.TotalLoops {
					return out, fmt.Errorf("%s: stream carried %d of %d loops", spec.Name, len(out.loops), handle.TotalLoops)
				}
				return out, nil
			}
			lat := ms(time.Since(start))
			if len(out.loops) == 0 {
				out.firstVerdict = lat
			}
			out.loops = append(out.loops, sl.LoopJSON)
			out.latencyMS = append(out.latencyMS, lat)
		}
		if errors.Is(err, io.EOF) {
			return out, fmt.Errorf("%s: stream ended before the run finished", spec.Name)
		}
		if err != nil {
			return out, err
		}
	}
}

func (w *fleetWarm) pass(ctx context.Context, traced bool) (passResult, error) {
	order := append([]*npb.Spec(nil), w.specs...)
	w.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	var before fleetCounters
	if traced {
		before = w.counters()
	}
	var rows []string
	var loops []core.LoopJSON
	var lat, first []float64
	bad := map[string]bool{}
	for _, spec := range order {
		run, err := w.analyze(ctx, spec)
		if err != nil {
			n, _ := w.ck.rows(fxFleetLoops, w.units(), nil)
			return passResult{attempted: n, failed: n}, err
		}
		for _, lj := range run.loops {
			k := fmt.Sprintf("%s\t%s\t%d", spec.Name, lj.Fn, lj.Index)
			rows = append(rows, k+"\t"+lj.Verdict+"\t"+lj.Reason)
			if analysisFailed(lj.Verdict) {
				bad[k] = true
				w.ck.note("fleet-warm: %s: verdict %s: %s", k, lj.Verdict, lj.Reason)
			}
		}
		loops = append(loops, run.loops...)
		lat = append(lat, run.latencyMS...)
		first = append(first, run.firstVerdict)
	}
	attempted, failed := w.ck.rows(fxFleetLoops, w.units(), rows)
	for k := range bad {
		failed[k] = true
	}
	if traced {
		w.layerM = w.tracedLayers(before, w.counters(), loops, first)
	}
	return passResult{attempted: attempted, failed: min(len(failed), attempted), latencyMS: lat}, nil
}

// fleetCounters snapshots the servers' cumulative counters, so a traced
// pass reports its own share.
type fleetCounters struct {
	retries, redispatches, hedges, fallbackLoops uint64
	peerHits, peerMisses, peerErrors             uint64
	memHits, diskHits                            uint64
	journalRecords, journalBytes                 int64
}

func (w *fleetWarm) counters() fleetCounters {
	var c fleetCounters
	if cm := w.coord.FleetMetrics(); cm != nil {
		c.retries = cm.NodeRetries.Value()
		c.redispatches = cm.Redispatches.Value()
		c.hedges = cm.Hedges.Value()
		c.fallbackLoops = cm.FallbackLoops.Value()
	}
	for _, s := range w.workers {
		if m := s.FleetMetrics(); m != nil {
			c.peerHits += m.PeerHits.Value()
			c.peerMisses += m.PeerMisses.Value()
			c.peerErrors += m.PeerErrors.Value()
		}
	}
	for _, st := range w.stores {
		s := st.Stats()
		c.memHits += s.MemHits
		c.diskHits += s.DiskHits
	}
	c.journalRecords, c.journalBytes = journalTotals(w.runDir)
	return c
}

// journalTotals counts the records (lines after each file's header) and
// bytes of every run journal in dir.
func journalTotals(dir string) (records, size int64) {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.journal"))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		size += int64(len(data))
		if n := int64(bytes.Count(data, []byte("\n"))); n > 0 {
			records += n - 1
		}
	}
	return records, size
}

func (w *fleetWarm) tracedLayers(b, a fleetCounters, loops []core.LoopJSON, first []float64) map[string]float64 {
	m := newLayers()
	tr := w.tr
	addAnalysisLayers(m, tr, loopFactsOfJSON(loops), 0, 0, 1)
	addCacheLayers(m, w.wrapped, nil)
	m["cache.mem_hits"] = float64(a.memHits - b.memHits)
	m["cache.disk_hits"] = float64(a.diskHits - b.diskHits)
	// Workers emit no static durations; a loop's verdict duration less its
	// timed stages and local cache reads is its static stage.
	var loopS float64
	for _, v := range tr.all.verdictMS {
		loopS += v / 1000
	}
	static := loopS - tr.all.goldenS - tr.all.replayS - tr.all.proveS - m["cache.get_s"]
	m["instrument.static_s"] = max(static, 0)

	m["journal.records"] = float64(a.journalRecords - b.journalRecords)
	m["journal.bytes"] = float64(a.journalBytes - b.journalBytes)
	w.transport.mu.Lock()
	var dispatchS float64
	for _, d := range w.transport.dispatch {
		dispatchS += d / 1000
	}
	m["fleet.dispatches"] = float64(len(w.transport.dispatch))
	m["fleet.dispatch_s"] = dispatchS
	m["fleet.dispatch_ms_p50"] = percentile(w.transport.dispatch, 50)
	m["fleet.response_mb"] = float64(w.transport.bytes) / 1e6
	w.transport.mu.Unlock()
	m["fleet.retries"] = float64(a.retries - b.retries)
	m["fleet.redispatches"] = float64(a.redispatches - b.redispatches)
	m["fleet.hedges"] = float64(a.hedges - b.hedges)
	m["fleet.fallback_loops"] = float64(a.fallbackLoops - b.fallbackLoops)
	m["fleet.peer_hits"] = float64(a.peerHits - b.peerHits)
	m["fleet.peer_misses"] = float64(a.peerMisses - b.peerMisses)
	m["fleet.peer_errors"] = float64(a.peerErrors - b.peerErrors)
	m["server.first_verdict_ms_p50"] = percentile(first, 50)
	return m
}

func (w *fleetWarm) layers() map[string]float64 { return w.layerM }
