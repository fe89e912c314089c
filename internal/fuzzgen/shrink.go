package fuzzgen

// Minimize delta-debugs a failing program spec: it greedily applies
// shrinking transformations — drop whole loops, drop noise statements,
// narrow iterator domains (trips, nest dims, histogram buckets), simplify
// payload constants — keeping a candidate only when keep reports that the
// original disagreement still reproduces. Transformations operate on the
// spec, never on rendered text, so every candidate stays inside the
// grammar and its ground-truth label remains valid by construction; trips
// never shrink below the production's minTrip, where the label argument
// would stop holding.
//
// keep is called on every candidate (typically a full differential
// re-check); Minimize bounds the number of calls, so a slow or flaky
// predicate cannot run away. The input program is never mutated.
func Minimize(p *Program, keep func(*Program) bool, maxChecks int) *Program {
	if maxChecks <= 0 {
		maxChecks = 200
	}
	checks := 0
	try := func(cand *Program) bool {
		if checks >= maxChecks {
			return false
		}
		checks++
		return keep(cand)
	}
	cur := p.clone()
	for changed := true; changed; {
		changed = false
		// Drop loops, last first (later loops are cheaper to remove: their
		// scaffolding follows the failing loop's in main).
		for i := len(cur.Loops) - 1; i >= 0 && len(cur.Loops) > 1; i-- {
			cand := cur.clone()
			cand.Loops = append(cand.Loops[:i], cand.Loops[i+1:]...)
			if try(cand) {
				cur, changed = cand, true
			}
		}
		// Drop noise statements.
		for i := range cur.Loops {
			if !cur.Loops[i].Noise {
				continue
			}
			cand := cur.clone()
			cand.Loops[i].Noise = false
			if try(cand) {
				cur, changed = cand, true
			}
		}
		// Narrow iterator domains: halve trips toward the label's floor.
		for i := range cur.Loops {
			l := &cur.Loops[i]
			for _, t := range []int{minTrip(l.Payload), l.Trip / 2} {
				if t >= minTrip(l.Payload) && t < l.Trip {
					cand := cur.clone()
					cand.Loops[i].Trip = t
					cand.Loops[i].normalize()
					if try(cand) {
						cur, changed = cand, true
						break
					}
				}
			}
			if (l.Iter == IterNested || l.Iter == IterSharedList) && l.Inner > 2 {
				cand := cur.clone()
				cand.Loops[i].Inner = 2
				cand.Loops[i].normalize()
				if try(cand) {
					cur, changed = cand, true
				}
			}
			if l.Payload == PayHistogram && l.Mod > 2 {
				cand := cur.clone()
				cand.Loops[i].Mod = 2
				if try(cand) {
					cur, changed = cand, true
				}
			}
		}
		// Simplify payload constants.
		for i := range cur.Loops {
			l := &cur.Loops[i]
			if l.K1 > 2 || l.K2 > 1 {
				cand := cur.clone()
				cand.Loops[i].K1, cand.Loops[i].K2 = 2, 1
				cand.Loops[i].normalize()
				if try(cand) {
					cur, changed = cand, true
				}
			}
		}
	}
	return cur
}

// normalize re-establishes spec invariants after a mutation: strides must
// stay coprime with the (possibly shrunk) element count, and aliased
// writes need distinct constants.
func (l *LoopSpec) normalize() {
	if l.Stride != 0 {
		s := 3
		for gcd(s, l.Elements()) != 1 {
			s += 2
		}
		l.Stride = s
	}
	if l.K1 == l.K2 {
		l.K2 = l.K1 + 1
	}
}

func (p *Program) clone() *Program {
	c := &Program{Seed: p.Seed, Loops: make([]LoopSpec, len(p.Loops))}
	copy(c.Loops, p.Loops)
	return c
}
