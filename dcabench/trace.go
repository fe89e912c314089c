package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dca/internal/core"
	"dca/internal/obs"
)

// The traced run measures every layer from outside the program: it times
// calls into the public API, wraps the verdict-cache and fleet-dispatch
// seams, folds the obs.Event stream the analyses already emit, reads public
// results, and profiles the CPU. Every collector below is a no-op while its
// tracer is disabled, so a traced fleet can also serve untraced passes.

// stageSums folds analysis trace events.
type stageSums struct {
	referenceS, goldenS, replayS, proveS          float64
	referenceN, goldenN, replayN, proveN, provedN int
	staticLoops, prescreenSkips, traps, retries   int
	verdictMS                                     []float64
}

func (s *stageSums) add(ev obs.Event) {
	d := ev.DurationMS / 1000
	switch ev.Stage {
	case obs.StageReference:
		s.referenceS += d
		s.referenceN++
	case obs.StageStatic:
		s.staticLoops++
	case obs.StagePrescreen:
		if ev.Outcome == obs.OutcomeSkipped {
			s.prescreenSkips++
		}
	case obs.StageProve:
		s.proveS += d
		s.proveN++
		if ev.Outcome == obs.OutcomeProved {
			s.provedN++
		}
	case obs.StageGolden:
		s.goldenS += d
		s.goldenN++
	case obs.StageReplay:
		s.replayS += d
		s.replayN++
	case obs.StageVerdict:
		s.verdictMS = append(s.verdictMS, ev.DurationMS)
	}
	// Executions trap; verdict events only repeat their loop's trap kind.
	switch ev.Stage {
	case obs.StageReference, obs.StageGolden, obs.StageReplay:
		if ev.Trap != "" {
			s.traps++
		}
		s.retries += ev.Retries
	}
}

// tracer owns one traced pass's collectors.
type tracer struct {
	on atomic.Bool

	mu     sync.Mutex
	all    stageSums // every analysis event
	engine stageSums // events of timed engine.Analyze calls only

	// Timed top-level calls, in seconds.
	compileS, depprofS, baselinesS, dcaS float64
	// engineSpans are [start, end) of engine.Analyze calls, folded into
	// the wall-clock time at least one call was running.
	engineSpans [][2]time.Time
}

// sink returns the event sink for analyses that run inside timed
// engine.Analyze calls (engine=true) or elsewhere.
func (t *tracer) sink(engine bool) obs.Sink {
	return obs.SinkFunc(func(ev obs.Event) {
		if !t.on.Load() {
			return
		}
		t.mu.Lock()
		t.all.add(ev)
		if engine {
			t.engine.add(ev)
		}
		t.mu.Unlock()
	})
}

// timed runs f and adds its wall-clock seconds to *acc.
func (t *tracer) timed(acc *float64, f func()) {
	start := time.Now()
	f()
	d := time.Since(start).Seconds()
	t.mu.Lock()
	*acc += d
	t.mu.Unlock()
}

// engineCall runs f as one timed engine.Analyze call.
func (t *tracer) engineCall(f func()) {
	start := time.Now()
	f()
	end := time.Now()
	t.mu.Lock()
	t.dcaS += end.Sub(start).Seconds()
	t.engineSpans = append(t.engineSpans, [2]time.Time{start, end})
	t.mu.Unlock()
}

// engineWall is the wall-clock time covered by at least one engine call.
func (t *tracer) engineWall() float64 {
	spans := append([][2]time.Time(nil), t.engineSpans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	var total time.Duration
	var curStart, curEnd time.Time
	for i, s := range spans {
		if i == 0 || s[0].After(curEnd) {
			total += curEnd.Sub(curStart)
			curStart, curEnd = s[0], s[1]
		} else if s[1].After(curEnd) {
			curEnd = s[1]
		}
	}
	total += curEnd.Sub(curStart)
	return total.Seconds()
}

// timedCache wraps a core.VerdictCache, counting and timing every call
// while its tracer is enabled.
type timedCache struct {
	inner              core.VerdictCache
	t                  *tracer
	gets, hits, puts   atomic.Int64
	getNanos, putNanos atomic.Int64
}

func (c *timedCache) Get(key string) ([]byte, bool) {
	if !c.t.on.Load() {
		return c.inner.Get(key)
	}
	start := time.Now()
	v, ok := c.inner.Get(key)
	c.getNanos.Add(int64(time.Since(start)))
	c.gets.Add(1)
	if ok {
		c.hits.Add(1)
	}
	return v, ok
}

func (c *timedCache) Put(key string, val []byte) {
	if !c.t.on.Load() {
		c.inner.Put(key, val)
		return
	}
	start := time.Now()
	c.inner.Put(key, val)
	c.putNanos.Add(int64(time.Since(start)))
	c.puts.Add(1)
}

// timedTransport times the coordinator's batch dispatches (POST /analyze)
// from request start until the response body is closed.
type timedTransport struct {
	base http.RoundTripper
	t    *tracer

	mu       sync.Mutex
	dispatch []float64 // ms
	bytes    int64
}

func (tt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() || req.Method != http.MethodPost || !strings.HasSuffix(req.URL.Path, "/analyze") {
		return tt.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.record(start, 0)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) { tt.record(start, n) }}
	return resp, nil
}

func (tt *timedTransport) record(start time.Time, n int64) {
	tt.mu.Lock()
	tt.dispatch = append(tt.dispatch, ms(time.Since(start)))
	tt.bytes += n
	tt.mu.Unlock()
}

// timedBody counts a response body's bytes and reports once on Close.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// runtimeSample reads the Go runtime's cumulative GC CPU, GC cycles and
// heap allocation counters.
type runtimeSample struct {
	gcCPU      float64
	gcCycles   uint64
	allocBytes uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[2].Value.Uint64()
	}
	return r
}

// profileCPU runs f under the CPU profiler and returns the share of its
// samples whose stack passes through a function matching focus, folded by
// the toolchain's pprof.
func profileCPU(dir, focus string, f func() error) (share float64, err error) {
	path := filepath.Join(dir, "cpu.pprof")
	out, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return 0, err
	}
	ferr := f()
	pprof.StopCPUProfile()
	if err := out.Close(); err != nil {
		return 0, err
	}
	if ferr != nil {
		return 0, ferr
	}
	return focusShare(dir, path, focus)
}

// focusShare runs `go tool pprof -top -focus` over the profile and returns
// the focused samples' share of all samples. Focusing keeps every sample
// with a matching frame anywhere in its stack, so deep recursion whose
// stacks the profiler truncated still counts.
func focusShare(dir, profile, focus string) (float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", "-focus="+focus, profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+dir)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	// "Showing nodes accounting for 26.95s, 79.36% of 33.96s total"
	sc := bufio.NewScanner(strings.NewReader(string(stdout)))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Showing nodes accounting for") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if pct, ok := strings.CutSuffix(strings.TrimSuffix(f, ","), "%"); ok {
				v, err := strconv.ParseFloat(pct, 64)
				if err != nil {
					return 0, fmt.Errorf("go tool pprof: share %q: %v", f, err)
				}
				return v / 100, nil
			}
		}
	}
	return 0, fmt.Errorf("go tool pprof: no summary line in %q", stdout)
}
