package dcart

import (
	"fmt"
	"math"
	"math/bits"

	"dca/internal/ir"
)

// Digest is a 128-bit structural digest of a live-out snapshot. It replaces
// the O(heap) string materialization of Snapshot on the dynamic stage's hot
// path: a golden run holding thousands of invocations keeps 16 bytes per
// snapshot instead of a serialized heap copy.
//
// Equivalence contract: two snapshots have equal Digests iff their Snapshot
// strings are equal, up to hash collisions (~2^-128 for non-adversarial
// inputs). The digest is position-keyed: every heap object reachable from
// the roots gets its first-visit ordinal k in Snapshot's traversal order,
// and the digest is the sum, in two independently mixed 64-bit lanes, of
// one term per (position, token) pair — the object header (type name and
// length) at (k, header), element j at (k, j), root i at (root, i). A
// reference's token is its target's ordinal. That set of pairs encodes the
// string serialization exactly (ordinals in traversal order, cycles and
// sharing as repeated ordinals), keeping the serializer's conflations:
// nil-kind and nil-ref share a token, and all NaN payloads share a class.
// For mismatch diagnosis the string mode is retained behind
// Runtime.DebugSnapshots.
type Digest struct{ Hi, Lo uint64 }

func (d Digest) String() string { return fmt.Sprintf("%016x%016x", d.Hi, d.Lo) }

// Token tags. A tag is part of a term's key, so equal payloads under
// different tags never share a term.
const (
	tagNil = iota + 1
	tagInt
	tagBool
	tagFloat
	tagNaN
	tagStr
	tagObj // object header: type name and length
	tagRef // reference element: the target's ordinal
)

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	mixSeed   = 0x9e3779b97f4a7c15 // golden-ratio increment (splitmix64)
	mixPrime  = 0xff51afd7ed558ccd // fmix64 multiplier (murmur3)
	mixPrime2 = 0xc4ceb9fe1a85ec53 // fmix64's second multiplier
)

// rootOrd is the ordinal slot of the root list; object ordinals stay below
// it (2^32-1 objects would not fit in memory).
const rootOrd = math.MaxUint32

// key packs a term's position and tag into one injective word: the ordinal
// in the high 32 bits, the tag in bits 27-31, and the slot in the low 27
// bits — slot 1 is an object's header, element or root j is slot j+2
// (arrays are capped at 64M elements, well below 2^27).
func key(ord uint32, tag uint64, slot int) uint64 {
	return uint64(ord)<<32 | tag<<27 | uint64(slot)
}

// token is one value as the digest sees it: a tag and a payload per lane.
// Scalars carry their exact bits in both lanes; strings and headers carry
// a two-lane hash; references carry the target's ordinal.
type token struct{ tag, hi, lo uint64 }

func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= mixPrime
	x ^= x >> 33
	x *= mixPrime2
	x ^= x >> 33
	return x
}

// term is one (key, token) pair's contribution to the two lanes. For a
// fixed key each lane is a bijection of its payload, so overwriting an
// element with a different token always changes both lanes' terms.
func term(k uint64, t token) (hi, lo uint64) {
	lo = fmix64(k*mixPrime ^ t.lo)
	hi = fmix64(bits.RotateLeft64(k*mixSeed, 32) ^ t.hi*mixPrime2)
	return hi, lo
}

// hasher streams 64-bit words into two independently-mixed lanes: lane lo
// is FNV-1a, lane hi is a rotate-multiply over a premixed word. It hashes
// strings and object headers into token payloads.
type hasher struct{ hi, lo uint64 }

func newHasher() hasher { return hasher{hi: mixSeed, lo: fnvOffset} }

func (h *hasher) word(x uint64) {
	h.lo = (h.lo ^ x) * fnvPrime
	h.hi = bits.RotateLeft64(h.hi^(x*mixPrime), 31) * mixSeed
}

// str hashes a length-prefixed string, eight bytes per word; the prefix
// makes the zero-padding of the final chunk unambiguous.
func (h *hasher) str(s string) {
	h.word(uint64(len(s)))
	for len(s) >= 8 {
		h.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		var last uint64
		for i := 0; i < len(s); i++ {
			last |= uint64(s[i]) << (8 * uint(i))
		}
		h.word(last)
	}
}

// isRef reports a non-nil reference: the one kind of value whose token
// depends on the rest of the graph.
func isRef(v ir.Value) bool { return v.Kind == ir.KindRef && v.Ref != nil }

// scalarToken is the token of any value but a non-nil reference.
func scalarToken(v ir.Value) token {
	switch v.Kind {
	case ir.KindInt:
		return token{tag: tagInt, hi: uint64(v.I), lo: uint64(v.I)}
	case ir.KindBool:
		return token{tag: tagBool, hi: uint64(v.I) & 1, lo: uint64(v.I) & 1}
	case ir.KindFloat:
		if v.F != v.F {
			// All NaN payloads serialize as "NaN" in string mode.
			return token{tag: tagNaN}
		}
		b := math.Float64bits(v.F)
		return token{tag: tagFloat, hi: b, lo: b}
	case ir.KindString:
		h := newHasher()
		h.str(v.S)
		return token{tag: tagStr, hi: h.hi, lo: h.lo}
	}
	// String mode conflates nil-kind and nil-ref ("nil;").
	return token{tag: tagNil}
}

// Digester computes the live-out digests of one execution and carries what
// it learned from one snapshot to the next. Its visit marks live in a
// generation-stamped table indexed by ir.Object.ID, reused across walks; a
// slot counts only while its stored pointer is the object, and IDs that are
// out of range or shared fall back to a small overflow map.
//
// Once told that an executor reports every store (ObserveStores), the
// digest becomes incremental: after a full walk, a scalar store into a
// visited object moves the sums by one term in O(1), so a snapshot whose
// roots are unchanged costs nothing more. A reference store that changes a
// visited object's edges, a root that now names a different object, or
// more stores between two snapshots than half a walk forces one full
// re-walk at the next snapshot. Unobserved digesters always walk.
type Digester struct {
	observed bool // every heap store reaches OnStore
	valid    bool // marks and sums describe the graph as it stands now
	gen      uint32
	marks    []mark
	extra    map[*ir.Object]uint32 // ordinals of objects the table cannot hold
	next     uint32                // ordinals handed out by the current walk
	elems    int                   // terms summed by the last walk
	budget   int                   // stores left in this interval before a re-walk is cheaper
	roots    []ir.Value            // the last snapshot's roots
	hi, lo   uint64
	walks    int
}

// mark is one table slot: obj was visited by walk gen with ordinal ord.
type mark struct {
	obj *ir.Object
	gen uint32
	ord uint32
}

// ObserveStores declares that from now on every heap store reaches OnStore
// while the returned flag is true, which lets snapshots update
// incrementally. The digester clears the flag while its state is stale
// anyway: between a forced re-walk and the walk itself.
func (d *Digester) ObserveStores() *bool {
	d.observed = true
	return &d.valid
}

// Walks reports how many snapshots needed a full walk of the graph.
func (d *Digester) Walks() int { return d.walks }

// OnStore must be called just before obj.Elems[idx] is overwritten with v.
func (d *Digester) OnStore(obj *ir.Object, idx int, v ir.Value) {
	if d.valid {
		d.store(obj, idx, v)
	}
}

func (d *Digester) store(obj *ir.Object, idx int, v ir.Value) {
	if d.budget--; d.budget < 0 {
		d.valid = false
		return
	}
	ord, ok := d.lookup(obj)
	if !ok {
		// Not reachable from the last roots, and it cannot become
		// reachable without a reference store into a visited object or a
		// root change, both of which force a re-walk.
		return
	}
	old := obj.Elems[idx]
	if isRef(old) || isRef(v) {
		if !isRef(old) || !isRef(v) || old.Ref != v.Ref {
			d.valid = false
		}
		return
	}
	d.replace(ord, idx+2, scalarToken(old), scalarToken(v))
}

// replace swaps the term at (ord, slot) from token a to token b.
func (d *Digester) replace(ord uint32, slot int, a, b token) {
	if a == b {
		return
	}
	ahi, alo := term(key(ord, a.tag, slot), a)
	bhi, blo := term(key(ord, b.tag, slot), b)
	d.hi += bhi - ahi
	d.lo += blo - alo
}

func (d *Digester) add(k uint64, t token) {
	hi, lo := term(k, t)
	d.hi += hi
	d.lo += lo
	d.elems++
}

// lookup returns the ordinal the current walk gave obj.
func (d *Digester) lookup(obj *ir.Object) (uint32, bool) {
	if id := uint64(obj.ID); id < uint64(len(d.marks)) {
		if m := &d.marks[id]; m.obj == obj && m.gen == d.gen {
			return m.ord, true
		}
	}
	if len(d.extra) > 0 {
		ord, ok := d.extra[obj]
		return ord, ok
	}
	return 0, false
}

// visit returns obj's ordinal in the current walk, handing out the next
// one on first sight.
func (d *Digester) visit(obj *ir.Object) (ord uint32, seen bool) {
	id := uint64(obj.ID)
	if id >= uint64(len(d.marks)) {
		d.grow(id)
	}
	if id < uint64(len(d.marks)) {
		m := &d.marks[id]
		if m.gen == d.gen && m.obj == obj {
			return m.ord, true
		}
		if m.gen != d.gen {
			// An object met before the table grew over its ID sits in
			// the overflow map.
			if len(d.extra) > 0 {
				if ord, ok := d.extra[obj]; ok {
					return ord, true
				}
			}
			*m = mark{obj: obj, gen: d.gen, ord: d.next}
			d.next++
			return m.ord, false
		}
	}
	if ord, ok := d.extra[obj]; ok {
		return ord, true
	}
	if d.extra == nil {
		d.extra = make(map[*ir.Object]uint32)
	}
	ord = d.next
	d.extra[obj] = ord
	d.next++
	return ord, false
}

// grow extends the mark table over id when the walk so far justifies it:
// the table follows the largest object ID the walks meet, up to eight
// slots per term walked, so a few old objects reachable among young ones
// cannot blow it up. There is no fixed floor: a run whose live-outs hold
// few objects keeps a small table. IDs beyond it, and IDs shared by two
// objects, use the overflow map.
func (d *Digester) grow(id uint64) {
	limit := 8 * uint64(d.elems+128)
	if id >= limit {
		return
	}
	marks := make([]mark, min(max(id+1, 2*uint64(len(d.marks))), limit))
	copy(marks, d.marks)
	d.marks = marks
}

// walk recomputes the digest from scratch, re-marking every reachable
// object.
func (d *Digester) walk(roots []ir.Value) {
	d.walks++
	d.gen++
	if d.gen == 0 {
		clear(d.marks)
		d.gen = 1
	}
	if len(d.extra) > 0 {
		clear(d.extra)
	}
	d.next, d.elems = 0, 0
	d.hi, d.lo = mixSeed, fnvOffset
	d.roots = append(d.roots[:0], roots...)
	for i, v := range roots {
		t := d.token(v)
		d.add(key(rootOrd, t.tag, i+2), t)
	}
	d.valid = d.observed
	d.refill()
}

// refill resets the store budget for the next snapshot interval: a store
// costs up to about two walked terms, so past half a walk's worth of them
// the next snapshot re-walks instead, and the executor stops reporting
// stores until then.
func (d *Digester) refill() { d.budget = d.elems/2 + 16 }

// token returns v's token, first walking the object v references when this
// walk has not seen it yet — the same depth-first preorder in which
// Snapshot numbers objects.
func (d *Digester) token(v ir.Value) token {
	if !isRef(v) {
		return scalarToken(v)
	}
	o := v.Ref
	ord, seen := d.visit(o)
	if !seen {
		h := newHasher()
		h.word(uint64(len(o.Elems)))
		h.str(o.TypeName)
		d.add(key(ord, tagObj, 1), token{tag: tagObj, hi: h.hi, lo: h.lo})
		for j, e := range o.Elems {
			t := d.token(e)
			d.add(key(ord, t.tag, j+2), t)
		}
	}
	return token{tag: tagRef, hi: uint64(ord), lo: uint64(ord)}
}

// sameRoots reports whether roots name the same objects, in the same
// places, as the last snapshot's, applying any scalar root changes to the
// sums on the way.
func (d *Digester) sameRoots(roots []ir.Value) bool {
	if len(roots) != len(d.roots) {
		return false
	}
	for i, v := range roots {
		old := d.roots[i]
		if isRef(old) || isRef(v) {
			if !isRef(old) || !isRef(v) || old.Ref != v.Ref {
				return false
			}
			continue
		}
		d.replace(rootOrd, i+2, scalarToken(old), scalarToken(v))
		d.roots[i] = v
	}
	return true
}

// SnapshotDigest produces the canonical, identity-insensitive digest of the
// value graph reachable from roots, without materializing it — the
// position-keyed counterpart of Snapshot. With a digester that observes
// stores and still describes the graph, the digest is brought up to date
// from the stores since the last snapshot; otherwise the graph is walked
// in full. A nil d walks with a throwaway digester.
func SnapshotDigest(d *Digester, roots []ir.Value) Digest {
	if d == nil {
		d = new(Digester)
	}
	if d.valid && d.sameRoots(roots) {
		d.refill()
	} else {
		d.walk(roots)
	}
	return Digest{Hi: d.hi, Lo: d.lo}
}
