package dcart_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dca/internal/dcart"
	"dca/internal/ir"
	"dca/internal/types"
)

// propGraph is one generated heap: a pool of objects (reachable or not),
// the roots a snapshot starts from, and a digester fed every store.
type propGraph struct {
	objs  []*ir.Object
	roots []ir.Value
	d     dcart.Digester
}

func (g *propGraph) store(obj *ir.Object, idx int, v ir.Value) {
	g.d.OnStore(obj, idx, v)
	obj.Elems[idx] = v
}

// mapped translates a value of graph a into graph b: references go to the
// object at the same pool index, scalars are copied.
func mapped(v ir.Value, a, b *propGraph) ir.Value {
	if v.Kind != ir.KindRef || v.Ref == nil {
		return v
	}
	for i, o := range a.objs {
		if o == v.Ref {
			return ir.RefVal(b.objs[i])
		}
	}
	panic("value outside the pool")
}

// newPropPair builds two structurally identical graphs whose objects differ
// in identity and ID. Object IDs are drawn so that some are shared between
// objects and some are negative or huge, which sends them through the
// digester's overflow map.
func newPropPair(r *rand.Rand) (a, b *propGraph) {
	node := types.NewStructInfo("N", []types.FieldInfo{
		{Name: "v", Type: types.IntType},
		{Name: "l", Type: &types.Type{Kind: types.Pointer}},
		{Name: "r", Type: &types.Type{Kind: types.Pointer}},
	})
	n := 4 + r.Intn(24)
	a, b = &propGraph{}, &propGraph{}
	id := func(g, i int) int64 {
		switch r.Intn(8) {
		case 0:
			return int64(r.Intn(n)) // shared with another object
		case 1:
			return -1 - int64(i)
		case 2:
			return 1<<40 + int64(i)
		}
		return int64(g*1000 + i)
	}
	for i := 0; i < n; i++ {
		var oa, ob *ir.Object
		if r.Intn(3) == 0 {
			k := 1 + r.Intn(6)
			oa = ir.NewArrayObject(id(1, i), types.IntType, k)
			ob = ir.NewArrayObject(id(2, i), types.IntType, k)
		} else {
			oa = ir.NewStructObject(id(1, i), node)
			ob = ir.NewStructObject(id(2, i), node)
		}
		a.objs = append(a.objs, oa)
		b.objs = append(b.objs, ob)
	}
	for i, oa := range a.objs {
		for j := range oa.Elems {
			v := randValue(r, a)
			oa.Elems[j] = v
			b.objs[i].Elems[j] = mapped(v, a, b)
		}
	}
	for k := 1 + r.Intn(3); k > 0; k-- {
		v := randValue(r, a)
		if r.Intn(2) == 0 {
			v = ir.RefVal(a.objs[r.Intn(n)])
		}
		a.roots = append(a.roots, v)
		b.roots = append(b.roots, mapped(v, a, b))
	}
	a.d.ObserveStores()
	b.d.ObserveStores()
	return a, b
}

// randValue draws from every token class the digest distinguishes or
// conflates, from a small domain so that independent writes to two graphs
// often agree again.
func randValue(r *rand.Rand, g *propGraph) ir.Value {
	switch r.Intn(12) {
	case 0, 1, 2:
		return ir.IntVal(int64(r.Intn(3)))
	case 3:
		return ir.BoolVal(r.Intn(2) == 0)
	case 4:
		return ir.FloatVal([]float64{0, math.Copysign(0, -1), 1.5}[r.Intn(3)])
	case 5:
		// Distinct NaN payloads: one class in string mode.
		return ir.FloatVal(math.Float64frombits(0x7ff8000000000000 | uint64(1+r.Intn(3))))
	case 6:
		return ir.StringVal([]string{"", "a", "ab", "abcdefghi"}[r.Intn(4)])
	case 7:
		return ir.NilVal()
	case 8:
		return ir.Value{Kind: ir.KindRef} // nil-ref
	}
	return ir.RefVal(g.objs[r.Intn(len(g.objs))]) // may close or break a cycle
}

// step applies one random mutation to a and, usually, the same mutation to
// b; sometimes only one side changes, or b copies a's value back, so the
// pair drifts apart and comes back together.
func step(r *rand.Rand, a, b *propGraph) {
	both := r.Intn(4) != 0
	if r.Intn(6) == 0 {
		// Root change: a scalar value or a swapped reference.
		i := r.Intn(len(a.roots))
		v := randValue(r, a)
		a.roots[i] = v
		if both {
			b.roots[i] = mapped(v, a, b)
		}
		return
	}
	oi := r.Intn(len(a.objs))
	oa, ob := a.objs[oi], b.objs[oi]
	j := r.Intn(len(oa.Elems))
	var v ir.Value
	switch r.Intn(5) {
	case 0:
		v = oa.Elems[j] // silent rewrite, reference or scalar
	case 1:
		b.store(ob, j, mapped(oa.Elems[j], a, b)) // re-converge
		return
	default:
		v = randValue(r, a)
	}
	if oa.Struct != nil && j > 0 && r.Intn(2) == 0 {
		v = ir.RefVal(a.objs[r.Intn(len(a.objs))])
	}
	a.store(oa, j, v)
	if both {
		b.store(ob, j, mapped(v, a, b))
	}
}

// TestIncrementalDigestProperty: under seeded random write sequences the
// incremental digest always equals a fresh walk, and digest equality of
// two graphs always matches their Snapshot string equality.
func TestIncrementalDigestProperty(t *testing.T) {
	snaps, walks, equal := 0, 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, b := newPropPair(r)
		for s := 0; s < 120; s++ {
			if s > 0 {
				step(r, a, b)
			}
			da := dcart.SnapshotDigest(&a.d, a.roots)
			db := dcart.SnapshotDigest(&b.d, b.roots)
			if fa := dcart.SnapshotDigest(nil, a.roots); da != fa {
				t.Fatalf("seed %d step %d: graph a incremental %s, full walk %s\n  %s", seed, s, da, fa, dcart.Snapshot(a.roots))
			}
			if fb := dcart.SnapshotDigest(nil, b.roots); db != fb {
				t.Fatalf("seed %d step %d: graph b incremental %s, full walk %s\n  %s", seed, s, db, fb, dcart.Snapshot(b.roots))
			}
			sEq := dcart.Snapshot(a.roots) == dcart.Snapshot(b.roots)
			if sEq != (da == db) {
				t.Fatalf("seed %d step %d: stringEq=%v digestEq=%v\n  a=%s\n  b=%s",
					seed, s, sEq, da == db, dcart.Snapshot(a.roots), dcart.Snapshot(b.roots))
			}
			if sEq {
				equal++
			}
			snaps += 2
		}
		walks += a.d.Walks() + b.d.Walks()
	}
	// The sequences must exercise both paths and both outcomes.
	if walks >= snaps/2 {
		t.Errorf("%d of %d snapshots walked: the incremental path is barely exercised", walks, snaps)
	}
	if equal == 0 || equal == snaps/2 {
		t.Errorf("%d of %d snapshot pairs equal: the pair never diverged or never re-converged", equal, snaps/2)
	}
}

// TestIncrementalScalarStoreSkipsWalk: on a BFS-sized graph, snapshots
// after scalar stores into visited objects re-walk nothing, and a
// reference store forces exactly one walk.
func TestIncrementalScalarStoreSkipsWalk(t *testing.T) {
	roots, dist, edge := bfsGraph(360, 48)
	var d dcart.Digester
	d.ObserveStores()
	dcart.SnapshotDigest(&d, roots)
	for i := 0; i < 50; i++ {
		d.OnStore(dist, i, ir.IntVal(int64(i)))
		dist.Elems[i] = ir.IntVal(int64(i))
		if got, want := dcart.SnapshotDigest(&d, roots), dcart.SnapshotDigest(nil, roots); got != want {
			t.Fatalf("store %d: incremental %s, full walk %s", i, got, want)
		}
	}
	if d.Walks() != 1 {
		t.Fatalf("scalar stores caused %d walks, want 1", d.Walks())
	}
	d.OnStore(edge, 1, ir.NilVal())
	edge.Elems[1] = ir.NilVal()
	if got, want := dcart.SnapshotDigest(&d, roots), dcart.SnapshotDigest(nil, roots); got != want {
		t.Fatalf("after reference store: incremental %s, full walk %s", got, want)
	}
	if d.Walks() != 2 {
		t.Fatalf("reference store caused %d walks in total, want 2", d.Walks())
	}
}

// bfsGraph builds the PLDS BFS heap: n vertices with deg outgoing edges
// each as linked edge lists, plus a distance array. It returns the
// live-out roots, the distance array and one edge.
func bfsGraph(n, deg int) (roots []ir.Value, dist, edge *ir.Object) {
	vert := types.NewStructInfo("GNode", []types.FieldInfo{
		{Name: "vert", Type: types.IntType},
		{Name: "adj", Type: &types.Type{Kind: types.Pointer}},
	})
	edgeT := types.NewStructInfo("GEdge", []types.FieldInfo{
		{Name: "to", Type: &types.Type{Kind: types.Pointer}},
		{Name: "next", Type: &types.Type{Kind: types.Pointer}},
	})
	id := int64(0)
	next := func() int64 { id++; return id }
	nodes := ir.NewArrayObject(next(), &types.Type{Kind: types.Pointer, Struct: vert}, n)
	for i := 0; i < n; i++ {
		g := ir.NewStructObject(next(), vert)
		g.Elems[0] = ir.IntVal(int64(i))
		nodes.Elems[i] = ir.RefVal(g)
	}
	for i := 0; i < n; i++ {
		var head ir.Value = ir.NilVal()
		for j := 0; j < deg; j++ {
			e := ir.NewStructObject(next(), edgeT)
			e.Elems[0] = nodes.Elems[(i+j*3+1)%n]
			e.Elems[1] = head
			head = ir.RefVal(e)
			edge = e
		}
		nodes.Elems[i].Ref.Elems[1] = head
	}
	dist = ir.NewArrayObject(next(), types.IntType, n)
	for i := range dist.Elems {
		dist.Elems[i] = ir.IntVal(1000000)
	}
	return []ir.Value{ir.RefVal(nodes), ir.RefVal(dist), ir.IntVal(0)}, dist, edge
}

// invoke drives one loop invocation through rt: it records tuples,
// replays them, reads every value of every tuple back, and verifies roots.
func invoke(t *testing.T, rt *dcart.Runtime, tuples [][]ir.Value, roots []ir.Value) ([][]int64, error) {
	t.Helper()
	for _, tup := range tuples {
		if _, err := rt.Intrinsic(nil, nil, "rt_iterator_linearize", tup); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Intrinsic(nil, nil, "rt_iterator_permute", nil); err != nil {
		t.Fatal(err)
	}
	var got [][]int64
	for {
		v, err := rt.Intrinsic(nil, nil, "rt_iterator_next", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Bool() {
			break
		}
		var row []int64
		for k := 0; ; k++ {
			x, err := rt.Intrinsic(nil, nil, "rt_iterator_get", []ir.Value{ir.IntVal(int64(k))})
			if err != nil {
				break
			}
			row = append(row, x.I)
		}
		got = append(got, row)
	}
	_, err := rt.Intrinsic(nil, nil, "rt_verify", roots)
	return got, err
}

// TestRuntimeTuplesReused: iterator tuples of varying width, carved from
// one backing slice reused across invocations, replay intact.
func TestRuntimeTuplesReused(t *testing.T) {
	rt := dcart.NewRuntime(dcart.Reverse{})
	tup := func(xs ...int64) []ir.Value {
		var vs []ir.Value
		for _, x := range xs {
			vs = append(vs, ir.IntVal(x))
		}
		return vs
	}
	got, err := invoke(t, rt, [][]ir.Value{tup(1, 2), tup(3), tup(4, 5, 6)}, nil)
	if err != nil || fmt.Sprint(got) != "[[4 5 6] [3] [1 2]]" {
		t.Fatalf("first invocation replayed %v (%v)", got, err)
	}
	got, err = invoke(t, rt, [][]ir.Value{tup(7), tup(8, 9)}, nil)
	if err != nil || fmt.Sprint(got) != "[[8 9] [7]]" {
		t.Fatalf("second invocation replayed %v (%v)", got, err)
	}
}

// TestDebugSnapshotsCatchUnobservedStore: a store the executor did not
// report leaves the incremental digest stale; DebugSnapshots must fail the
// invocation instead of letting the changed live-out pass.
func TestDebugSnapshotsCatchUnobservedStore(t *testing.T) {
	roots, dist, _ := bfsGraph(40, 4)
	for _, debug := range []bool{false, true} {
		rt := dcart.NewRuntime(dcart.Identity{})
		rt.DebugSnapshots = debug
		rt.ObserveStores()
		if _, err := invoke(t, rt, nil, roots); err != nil {
			t.Fatal(err)
		}
		rt.OnStore(dist, 0, ir.IntVal(1))
		dist.Elems[0] = ir.IntVal(1)
		if _, err := invoke(t, rt, nil, roots); err != nil {
			t.Fatalf("debug=%v: reported store: %v", debug, err)
		}
		dist.Elems[1] = ir.IntVal(2) // not reported
		_, err := invoke(t, rt, nil, roots)
		if debug && !errors.Is(err, dcart.ErrDigestDivergence) {
			t.Fatalf("unreported store: err = %v, want ErrDigestDivergence", err)
		}
		if !debug && err != nil {
			t.Fatalf("without DebugSnapshots the runtime cannot notice: %v", err)
		}
		dist.Elems[0], dist.Elems[1] = ir.IntVal(1000000), ir.IntVal(1000000)
	}
}
