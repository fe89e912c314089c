// Package fuzzgen is a seeded, deterministic MiniC loop-nest generator
// with ground-truth commutativity labels. It composes iterator shapes
// (counted range up/down, linked-list walk, worklist indirection, nested
// range, a list walk nested in a range over one shared list) with payload
// effects (pure, scalar reductions, disjoint/affine array writes, aliased
// writes, order-dependent folds and outputs) where every production
// carries a label — commutative, non-commutative, or unknown — established
// by construction, not by running any analyzer.
//
// The generator exists to test the analyzers, so its determinism contract
// is strict: the same seed yields the same Program spec and the same
// rendered source, byte for byte, on every platform and in every process.
// All randomness flows from a splitmix64 stream seeded by the caller;
// nothing is ever derived from the clock.
//
// The package also carries the delta-debugging minimizer (shrink.go) and
// the regression-corpus store (corpus.go) used by the differential harness
// in fuzzgen/diff.
package fuzzgen

import "fmt"

// Label is the ground-truth commutativity class of a generated loop.
type Label int

// Ground-truth labels. The soundness invariant the differential harness
// enforces: DCA must never report a LabelNonCommutative loop commutative.
const (
	// LabelCommutative: iterations may run in any order with identical
	// observable results — guaranteed by construction (disjoint writes,
	// associative-commutative integer folds, idempotent-free but
	// order-insensitive updates).
	LabelCommutative Label = iota
	// LabelNonCommutative: reversing the iteration order provably changes
	// a live-out or the program output. The productions are constructed so
	// the always-tested Reverse schedule is sufficient evidence: a
	// commutative verdict can never be excused by "the schedules missed it".
	LabelNonCommutative
	// LabelUnknown: order sensitivity depends on arithmetic collisions or
	// floating-point rounding the generator does not decide. Any verdict
	// is acceptable; the loops exist to widen pipeline coverage, and the
	// parallel-executor oracle still applies when DCA says commutative.
	LabelUnknown
)

var labelNames = [...]string{"commutative", "non-commutative", "unknown"}

func (l Label) String() string { return labelNames[l] }

// IterShape enumerates the iterator productions.
type IterShape int

// Iterator shapes.
const (
	// IterRangeUp: for (i = 0; i < n; i++).
	IterRangeUp IterShape = iota
	// IterRangeDown: for (i = n-1; i >= 0; i--).
	IterRangeDown
	// IterList: while (p != nil) { ...; p = p->next; } over a list built in
	// main (the build loop itself is an unlabeled, order-dependent loop).
	IterList
	// IterWorklist: for (k = 0; k < n; k++) { i = w[k]; ... } where w is a
	// permutation of 0..n-1 — the element order is data, not control.
	IterWorklist
	// IterNested: a two-level range nest over a flattened r*c array; the
	// loop function contains two labeled loops (outer and inner).
	IterNested
	// IterSharedList: for (r = 0; r < Trip; r++) { p = head; while (p !=
	// nil) { ...; p = p->next; } } — the inner list walk runs once per
	// outer iteration over one list of Inner nodes that every invocation
	// shares, and adds into shared arrays. The inner loop's live-outs keep
	// the whole list reachable while each invocation stores only scalars,
	// which is the incremental live-out digest's fast path. Histogram
	// payload only; both loops carry its label.
	IterSharedList
	numIterShapes
)

var iterNames = [...]string{"range", "range_down", "list", "worklist", "nested", "shared_list"}

func (s IterShape) String() string { return iterNames[s] }

// PayloadKind enumerates the payload productions.
type PayloadKind int

// Payload effects. Comments give the ground truth and its argument.
const (
	// PayPure: local computation, no observable effect. Commutative.
	PayPure PayloadKind = iota
	// PayDisjointWrite: a[i] = f(i); each iteration owns its cell.
	// Commutative.
	PayDisjointWrite
	// PaySumReduce: s += f(i); int addition is associative-commutative
	// (wraparound included). Commutative.
	PaySumReduce
	// PayProdReduce: s *= odd(i); int multiplication likewise. Commutative.
	PayProdReduce
	// PayMinMax: if (v > m) { m = v; }; max is associative-commutative.
	// Commutative.
	PayMinMax
	// PayHistogram: h[i % m] += g(i); per-cell sums of commutative adds.
	// Commutative — but NOT safe for the goroutine executor (racy
	// increments of shared cells), so it is excluded from the parallel
	// oracle by ParallelSafe.
	PayHistogram
	// PayScatterInj: a[(i*s) % n] = f(i) with gcd(s, n) = 1 — an injective
	// index map, so writes are disjoint. Commutative.
	PayScatterInj
	// PayOrderedFold: s = s*3 + v(i) with the v(i) pairwise distinct; the
	// fold weights values by position, so any reordering (reverse in
	// particular) changes s. Non-commutative for trip >= 2.
	PayOrderedFold
	// PayFirstWrite: if (c[i/2] == 0) { c[i/2] = i+k; } — first writer
	// wins; reversing the order flips the winner of every colliding pair.
	// Non-commutative for trip >= 2.
	PayFirstWrite
	// PayRecurrence: a[i] = a[i-1] + g(i) — a carried chain; under reverse
	// order every read sees the unwritten predecessor. Non-commutative for
	// trip >= 3 (range-up iterator only).
	PayRecurrence
	// PayAliasedWrite: a[i] = f1(i); b[n-1-i] = f2(i) where a and b alias
	// the same array — contested cells are last-writer-wins.
	// Non-commutative for trip >= 2.
	PayAliasedWrite
	// PayIOPrint: prints inside the loop; output order is observable.
	// Non-commutative (DCA must exclude it as an I/O loop, which is a
	// correct, sound outcome — never a commutative verdict).
	PayIOPrint
	// PayFloatSum: f += 1/float(g(i)); reordering changes rounding, but
	// whether the final bits differ depends on the trip and magnitudes.
	// Unknown.
	PayFloatSum
	// PayModWrite: a[(i*i + k) % n] = f(i); collisions (and hence order
	// sensitivity) depend on quadratic residues mod n. Unknown.
	PayModWrite
	numPayloadKinds
)

var payloadNames = [...]string{
	"pure", "disjoint_write", "sum_reduce", "prod_reduce", "minmax",
	"histogram", "scatter", "ordered_fold", "first_write", "recurrence",
	"aliased_write", "io_print", "float_sum", "mod_write",
}

func (p PayloadKind) String() string { return payloadNames[p] }

// LoopSpec is one generated loop-nest production: an iterator shape, a
// payload effect, and the concrete parameters the renderer interpolates.
// Specs — not rendered text — are what the minimizer mutates, so every
// transformation stays inside the grammar and the ground-truth label
// remains valid by construction.
type LoopSpec struct {
	// Seq is the program-unique sequence number; it names the loop
	// function (fz<Seq>_<payload>) and stays stable under shrinking.
	Seq     int         `json:"seq"`
	Iter    IterShape   `json:"iter"`
	Payload PayloadKind `json:"payload"`
	// Trip is the iteration count (the outer trip for IterNested).
	Trip int `json:"trip"`
	// Inner is the inner trip for IterNested (0 otherwise).
	Inner int `json:"inner,omitempty"`
	// Stride is the scatter/worklist permutation stride, coprime with the
	// element count.
	Stride int `json:"stride,omitempty"`
	// Mod is the histogram bucket count / first-write collision divisor.
	Mod int `json:"mod,omitempty"`
	// K1, K2 are small positive payload constants.
	K1 int `json:"k1"`
	K2 int `json:"k2"`
	// Noise adds a benign local computation to the payload; the minimizer
	// drops it first ("remove statements").
	Noise bool `json:"noise,omitempty"`
}

// FnName is the generated function holding this loop (every labeled loop
// lives in its own function, so fn name identifies the production; for
// IterNested the function holds both labeled loops).
func (l *LoopSpec) FnName() string {
	return fmt.Sprintf("fz%d_%s", l.Seq, l.Payload)
}

// Label returns the spec's ground truth.
func (l *LoopSpec) Label() Label {
	switch l.Payload {
	case PayOrderedFold, PayFirstWrite, PayRecurrence, PayAliasedWrite, PayIOPrint:
		return LabelNonCommutative
	case PayFloatSum, PayModWrite:
		return LabelUnknown
	}
	return LabelCommutative
}

// ParallelSafe reports whether the loop is safe for the goroutine
// executor's privatization scheme: disjoint heap writes or recognized
// scalar reductions only. Commutative-but-racy payloads (histogram: many
// iterations increment one shared cell) are excluded — running them through
// internal/parallel would be a data race in the interpreter heap, not a
// commutativity question.
func (l *LoopSpec) ParallelSafe() bool {
	if l.Label() != LabelCommutative {
		return false
	}
	switch l.Payload {
	case PayPure, PayDisjointWrite, PayScatterInj, PaySumReduce, PayProdReduce:
		return true
	}
	return false
}

// Elements returns the number of array elements / list nodes the loop
// touches (Trip, Trip*Inner for nests, Inner for the shared list).
func (l *LoopSpec) Elements() int {
	switch l.Iter {
	case IterNested:
		return l.Trip * l.Inner
	case IterSharedList:
		return l.Inner
	}
	return l.Trip
}

// Program is one generated program spec: the seed it came from and its
// loop productions. Render assembles the MiniC source; Labels exposes the
// per-function ground truth the differential harness checks against.
type Program struct {
	Seed  int64      `json:"seed"`
	Loops []LoopSpec `json:"loops"`
}

// Labels maps generated function name -> ground truth. The label covers
// every loop inside that function (IterNested functions hold two loops,
// both carrying the production's label). Loops in main — list builds,
// worklist fills, checksum folds — are unlabeled by design: they are real
// analysis work but assert nothing.
func (p *Program) Labels() map[string]Label {
	m := make(map[string]Label, len(p.Loops))
	for i := range p.Loops {
		m[p.Loops[i].FnName()] = p.Loops[i].Label()
	}
	return m
}

// SpecByFn returns the loop spec rendered into the named function, or nil.
func (p *Program) SpecByFn(fn string) *LoopSpec {
	for i := range p.Loops {
		if p.Loops[i].FnName() == fn {
			return &p.Loops[i]
		}
	}
	return nil
}

// rng is a splitmix64 stream — deterministic, platform-independent, and
// stable across Go releases (unlike math/rand's generator-order contract).
type rng struct{ s uint64 }

func newRNG(seed int64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeInt returns a value in [lo, hi] inclusive.
func (r *rng) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// compatible reports whether the grammar composes the iterator with the
// payload. The exclusions are semantic, not cosmetic: a recurrence needs
// the canonical ascending index chain, and node payloads only exist for
// value-shaped effects.
func compatible(it IterShape, pay PayloadKind) bool {
	switch it {
	case IterList:
		switch pay {
		case PayPure, PayDisjointWrite, PaySumReduce, PayProdReduce,
			PayMinMax, PayOrderedFold, PayFloatSum, PayIOPrint:
			return true
		}
		return false
	case IterNested:
		switch pay {
		case PayPure, PayDisjointWrite, PaySumReduce, PayHistogram,
			PayOrderedFold, PayMinMax:
			return true
		}
		return false
	case IterRangeDown, IterWorklist:
		return pay != PayRecurrence
	case IterSharedList:
		return pay == PayHistogram
	}
	return true
}

// minTrip is the smallest iteration count under which the production's
// label argument holds (see the PayloadKind comments). The generator never
// goes below it and the minimizer stops shrinking at it.
func minTrip(pay PayloadKind) int {
	switch pay {
	case PayRecurrence:
		return 3
	case PayOrderedFold, PayFirstWrite, PayAliasedWrite:
		return 4
	}
	return 2
}

// coprime returns a stride > 1 coprime with n (injective i -> (i*s) % n).
func coprime(n int, r *rng) int {
	for {
		s := r.rangeInt(3, 19)
		if s%2 == 0 {
			s++
		}
		if gcd(s, n) == 1 {
			return s
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// New generates the program spec for one seed. Identical seeds yield
// identical specs; the renderer is pure, so identical specs yield
// byte-identical source.
func New(seed int64) *Program {
	r := newRNG(seed)
	p := &Program{Seed: seed}
	nLoops := r.rangeInt(1, 4)
	for i := 0; i < nLoops; i++ {
		var it IterShape
		var pay PayloadKind
		for {
			it = IterShape(r.intn(int(IterSharedList)))
			pay = PayloadKind(r.intn(int(numPayloadKinds)))
			if compatible(it, pay) {
				break
			}
		}
		spec := LoopSpec{
			Seq:     i,
			Iter:    it,
			Payload: pay,
			Trip:    r.rangeInt(minTrip(pay), 48),
			K1:      r.rangeInt(2, 9),
			K2:      r.rangeInt(1, 9),
			Noise:   r.intn(3) == 0,
		}
		if it == IterNested {
			spec.Trip = r.rangeInt(2, 8)
			spec.Inner = r.rangeInt(2, 8)
		}
		// The ordered-fold label argument (rearrangement inequality over
		// the positional weights 3^k) needs exact arithmetic: cap total
		// elements at 16 so the fold never wraps int64.
		if pay == PayOrderedFold {
			if it == IterNested {
				spec.Trip = r.rangeInt(2, 4)
				spec.Inner = r.rangeInt(2, 4)
			} else if spec.Trip > 16 {
				spec.Trip = 4 + spec.Trip%13
			}
		}
		if spec.K1 == spec.K2 {
			spec.K2 = spec.K1 + 1 // aliased writes need distinct values
		}
		switch pay {
		case PayHistogram:
			spec.Mod = r.rangeInt(2, 8)
		case PayScatterInj:
			spec.Stride = coprime(spec.Elements(), r)
		}
		if it == IterWorklist {
			spec.Stride = coprime(spec.Elements(), r)
		}
		p.Loops = append(p.Loops, spec)
	}
	// The shared-list production is drawn after the others, so a seed's
	// other loops do not depend on whether it is present.
	if r.intn(4) == 0 {
		p.Loops = append(p.Loops, LoopSpec{
			Seq:     nLoops,
			Iter:    IterSharedList,
			Payload: PayHistogram,
			Trip:    r.rangeInt(minTrip(PayHistogram), 6),
			Inner:   r.rangeInt(2, 24),
			Mod:     r.rangeInt(2, 8),
			K1:      r.rangeInt(2, 9),
			K2:      r.rangeInt(1, 9),
		})
	}
	return p
}
