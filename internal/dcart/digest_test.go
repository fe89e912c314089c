package dcart_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dca/internal/dcart"
	"dca/internal/ir"
	"dca/internal/types"
)

// graphCases builds a spread of value graphs whose pairwise string
// (in)equality the digest must reproduce: scalars, nested/shared/cyclic
// heap shapes, and the serializer's deliberate conflations.
func graphCases() map[string][]ir.Value {
	listSI := types.NewStructInfo("N", []types.FieldInfo{
		{Name: "v", Type: types.IntType},
		{Name: "next", Type: &types.Type{Kind: types.Pointer}},
	})
	mkList := func(base int64, vals ...int64) ir.Value {
		var head ir.Value = ir.NilVal()
		for i := len(vals) - 1; i >= 0; i-- {
			o := ir.NewStructObject(base+int64(i), listSI)
			o.Elems[0] = ir.IntVal(vals[i])
			o.Elems[1] = head
			head = ir.RefVal(o)
		}
		return head
	}
	two := types.NewStructInfo("D", []types.FieldInfo{
		{Name: "l", Type: &types.Type{Kind: types.Pointer}},
		{Name: "r", Type: &types.Type{Kind: types.Pointer}},
	})
	leafT := types.NewStructInfo("L", []types.FieldInfo{{Name: "v", Type: types.IntType}})
	shared := ir.NewStructObject(3, two)
	leaf := ir.NewStructObject(4, leafT)
	shared.Elems[0], shared.Elems[1] = ir.RefVal(leaf), ir.RefVal(leaf)
	copies := ir.NewStructObject(5, two)
	copies.Elems[0], copies.Elems[1] = ir.RefVal(ir.NewStructObject(6, leafT)), ir.RefVal(ir.NewStructObject(7, leafT))

	cyc := ir.NewStructObject(8, listSI)
	cyc.Elems[0] = ir.IntVal(1)
	cyc.Elems[1] = ir.RefVal(cyc)

	arr := ir.NewArrayObject(9, types.IntType, 4)
	for i := range arr.Elems {
		arr.Elems[i] = ir.IntVal(int64(i * i))
	}

	return map[string][]ir.Value{
		"empty":        nil,
		"scalars":      {ir.IntVal(1), ir.BoolVal(true), ir.FloatVal(2.5), ir.StringVal("x"), ir.NilVal()},
		"scalars2":     {ir.IntVal(1), ir.BoolVal(false), ir.FloatVal(2.5), ir.StringVal("x"), ir.NilVal()},
		"int-0":        {ir.IntVal(0)},
		"int-neg":      {ir.IntVal(-7)},
		"float-0":      {ir.FloatVal(0)},
		"float-neg0":   {ir.FloatVal(math.Copysign(0, -1))},
		"float-inf":    {ir.FloatVal(math.Inf(1))},
		"float-nan":    {ir.FloatVal(math.NaN())},
		"float-nan2":   {ir.FloatVal(math.Float64frombits(0x7ff8000000000001))},
		"str-empty":    {ir.StringVal("")},
		"str-short":    {ir.StringVal("ab")},
		"str-8":        {ir.StringVal("abcdefgh")},
		"str-9":        {ir.StringVal("abcdefghi")},
		"str-zeros":    {ir.StringVal("ab\x00\x00")},
		"str-zeros2":   {ir.StringVal("ab\x00")},
		"nil-kind":     {ir.NilVal()},
		"nil-ref":      {{Kind: ir.KindRef, Ref: nil}},
		"list-a":       {mkList(100, 10, 11, 12)},
		"list-a-again": {mkList(900, 10, 11, 12)},
		"list-b":       {mkList(100, 10, 11, 13)},
		"shared":       {ir.RefVal(shared)},
		"copies":       {ir.RefVal(copies)},
		"cycle":        {ir.RefVal(cyc)},
		"array":        {ir.RefVal(arr)},
		// Concatenation ambiguity probes: ["ab","c"] vs ["a","bc"].
		"split-1": {ir.StringVal("ab"), ir.StringVal("c")},
		"split-2": {ir.StringVal("a"), ir.StringVal("bc")},
	}
}

// TestDigestMatchesStringEquality: across all pairs of graph cases, digest
// equality must coincide with string-snapshot equality — the equivalence
// contract the dynamic stage's live-out verification rests on.
func TestDigestMatchesStringEquality(t *testing.T) {
	cases := graphCases()
	for na, a := range cases {
		for nb, b := range cases {
			sEq := dcart.Snapshot(a) == dcart.Snapshot(b)
			dEq := dcart.SnapshotDigest(nil, a) == dcart.SnapshotDigest(nil, b)
			if sEq != dEq {
				t.Errorf("%s vs %s: stringEq=%v digestEq=%v\n  a=%s\n  b=%s",
					na, nb, sEq, dEq, dcart.Snapshot(a), dcart.Snapshot(b))
			}
		}
	}
}

// TestDigestObservesMutation mirrors TestSnapshotObservesMutation.
func TestDigestObservesMutation(t *testing.T) {
	o := ir.NewArrayObject(1, types.IntType, 3)
	before := dcart.SnapshotDigest(nil, []ir.Value{ir.RefVal(o)})
	o.Elems[1] = ir.IntVal(7)
	if before == dcart.SnapshotDigest(nil, []ir.Value{ir.RefVal(o)}) {
		t.Error("mutation must change the digest")
	}
}

// TestDigestCycleTerminates: back-references must terminate traversal.
func TestDigestCycleTerminates(t *testing.T) {
	si := types.NewStructInfo("C", []types.FieldInfo{
		{Name: "next", Type: &types.Type{Kind: types.Pointer}},
	})
	a := ir.NewStructObject(1, si)
	b := ir.NewStructObject(2, si)
	a.Elems[0] = ir.RefVal(b)
	b.Elems[0] = ir.RefVal(a)
	d := dcart.SnapshotDigest(nil, []ir.Value{ir.RefVal(a)})
	if d == (dcart.Digest{}) {
		t.Error("cycle digest should be non-zero")
	}
	if len(d.String()) != 32 {
		t.Errorf("Digest.String() = %q, want 32 hex digits", d.String())
	}
}

// TestRuntimeDebugSnapshots: the debug flag materializes parallel string
// snapshots matching the digests one-to-one.
func TestRuntimeDebugSnapshots(t *testing.T) {
	rt := dcart.NewRuntime(dcart.Identity{})
	rt.DebugSnapshots = true
	if _, err := rt.Intrinsic(nil, nil, "rt_iterator_permute", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Intrinsic(nil, nil, "rt_verify", []ir.Value{ir.IntVal(9)}); err != nil {
		t.Fatal(err)
	}
	if len(rt.Snapshots) != 1 || len(rt.SnapshotStrings) != 1 {
		t.Fatalf("snapshots=%d strings=%d", len(rt.Snapshots), len(rt.SnapshotStrings))
	}
	if rt.SnapshotStrings[0] != "i9;" {
		t.Errorf("debug string = %q", rt.SnapshotStrings[0])
	}
	if rt.Snapshots[0] != dcart.SnapshotDigest(nil, []ir.Value{ir.IntVal(9)}) {
		t.Error("digest mismatch vs direct SnapshotDigest")
	}
}

// benchRoots builds a ~1000-object heap typical of a PLDS golden run.
func benchRoots() []ir.Value {
	si := types.NewStructInfo("N", []types.FieldInfo{
		{Name: "v", Type: types.IntType},
		{Name: "s", Type: types.StringType},
		{Name: "next", Type: &types.Type{Kind: types.Pointer}},
	})
	var head ir.Value = ir.NilVal()
	for i := 0; i < 1000; i++ {
		o := ir.NewStructObject(int64(i), si)
		o.Elems[0] = ir.IntVal(int64(i * 37))
		o.Elems[1] = ir.StringVal(fmt.Sprintf("node-%d", i))
		o.Elems[2] = head
		head = ir.RefVal(o)
	}
	arr := ir.NewArrayObject(5000, types.FloatType, 256)
	for i := range arr.Elems {
		arr.Elems[i] = ir.FloatVal(float64(i) * 1.5)
	}
	return []ir.Value{head, ir.RefVal(arr)}
}

func BenchmarkSnapshot(b *testing.B) {
	roots := benchRoots()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if dcart.Snapshot(roots) == "" {
			b.Fatal("empty")
		}
	}
}

// BenchmarkSnapshotDigest times the digest three ways: a fresh full walk
// of the 1000-object list heap, a full walk of the BFS heap (360 vertices
// with 48 edges each), and incremental snapshots of that BFS heap after k
// scalar stores, each reported against the full walk ("x-vs-walk").
func BenchmarkSnapshotDigest(b *testing.B) {
	b.Run("list/walk", func(b *testing.B) {
		roots := benchRoots()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if (dcart.SnapshotDigest(nil, roots) == dcart.Digest{}) {
				b.Fatal("zero digest")
			}
		}
	})
	b.Run("bfs/walk", func(b *testing.B) {
		roots, _, _ := bfsGraph(360, 48)
		var d dcart.Digester
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dcart.SnapshotDigest(&d, roots)
		}
	})
	for _, k := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("bfs/incremental-%d-writes", k), func(b *testing.B) {
			roots, dist, _ := bfsGraph(360, 48)
			walk := walkNanos(roots)
			var d dcart.Digester
			d.ObserveStores()
			dcart.SnapshotDigest(&d, roots)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					c, v := (i*k+j)%len(dist.Elems), ir.IntVal(int64(i+j))
					d.OnStore(dist, c, v)
					dist.Elems[c] = v
				}
				dcart.SnapshotDigest(&d, roots)
			}
			b.StopTimer()
			b.ReportMetric(walk*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "x-vs-walk")
			b.ReportMetric(float64(d.Walks()-1)/float64(b.N), "walks/op")
		})
	}
}

// walkNanos is the mean cost of a full-walk digest of roots.
func walkNanos(roots []ir.Value) float64 {
	var d dcart.Digester
	dcart.SnapshotDigest(&d, roots)
	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		dcart.SnapshotDigest(&d, roots)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
