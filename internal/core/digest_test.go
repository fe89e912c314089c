package core_test

import (
	"strings"
	"testing"

	"dca/internal/core"
	"dca/internal/dcart"
	"dca/internal/irbuild"
)

// bfsSource is a reduced PLDS BFS: each inner-loop invocation relaxes one
// frontier vertex's edges, writing scalars into dist and nextfront while
// the pointer-linked graph stays reachable from the live-outs. Most
// snapshots therefore follow a few scalar stores into a large visited
// heap — the incremental digest's fast path.
const bfsSource = `
struct GNode { vert int; adj *GEdge; }
struct GEdge { to *GNode; next *GEdge; }
func build(nodes []*GNode, n int, deg int) {
	for (var i int = 0; i < n; i++) {
		var g *GNode = new GNode;
		g->vert = i;
		nodes[i] = g;
	}
	for (var i int = 0; i < n; i++) {
		var eh *GEdge = nil;
		for (var j int = 0; j < deg; j++) {
			var e *GEdge = new GEdge;
			e->to = nodes[(i + j * 3 + 1) % n];
			e->next = eh;
			eh = e;
		}
		nodes[i]->adj = eh;
	}
}
func bfs_round(nodes []*GNode, infront []int, nextfront []int, dist []int, n int, level int) int {
	var added int = 0;
	for (var v int = 0; v < n; v++) {
		if (infront[v] == 1) {
			var e *GEdge = nodes[v]->adj;
			while (e != nil) {
				var u int = e->to->vert;
				if (dist[u] > level + 1) {
					dist[u] = level + 1;
					if (nextfront[u] == 0) { nextfront[u] = 1; added++; }
				}
				e = e->next;
			}
		}
	}
	return added;
}
func search(nodes []*GNode, dist []int, infront []int, nextfront []int, n int, src int) int {
	for (var i int = 0; i < n; i++) { dist[i] = 1000000; infront[i] = 0; nextfront[i] = 0; }
	dist[src] = 0;
	infront[src] = 1;
	var level int = 0;
	var remaining int = 1;
	while (remaining > 0) {
		remaining = bfs_round(nodes, infront, nextfront, dist, n, level);
		for (var i int = 0; i < n; i++) { infront[i] = nextfront[i]; nextfront[i] = 0; }
		level++;
	}
	var s int = 0;
	for (var i int = 0; i < n; i++) { s += dist[i] % 4096; }
	return s + level;
}
func main() {
	var n int = 48;
	var nodes []*GNode = new [n]*GNode;
	build(nodes, n, 6);
	var dist []int = new [n]int;
	var infront []int = new [n]int;
	var nextfront []int = new [n]int;
	var s int = 0;
	for (var q int = 0; q < 2; q++) {
		s += search(nodes, dist, infront, nextfront, n, (q * 61) % n);
	}
	print(s);
}
`

// TestIncrementalDigestExecutorParity: with DebugSnapshots on, every
// snapshot of every golden run and replay cross-checks the incremental
// digest against a full walk. Both executors must feed the digest every
// store — the VM's and the tree-walker's store sites alike — and reach the
// same verdicts with no divergence.
func TestIncrementalDigestExecutorParity(t *testing.T) {
	prog, err := irbuild.Compile("bfs.mc", bfsSource)
	if err != nil {
		t.Fatal(err)
	}
	var reports [2]*core.Report
	for i, noVM := range []bool{false, true} {
		rep, err := core.Analyze(prog, core.Options{
			DebugSnapshots: true, NoVM: noVM, NoFootprint: true, NoProve: true,
		})
		if err != nil {
			t.Fatalf("noVM=%v: %v", noVM, err)
		}
		for _, lr := range rep.Loops {
			if strings.Contains(lr.Reason, dcart.ErrDigestDivergence.Error()) {
				t.Errorf("noVM=%v %s/%d: %s", noVM, lr.Fn, lr.Index, lr.Reason)
			}
		}
		for _, idx := range []int{0, 1} {
			if lr := rep.Result("bfs_round", idx); lr == nil || lr.Verdict != core.Commutative || lr.Invocations == 0 {
				t.Errorf("noVM=%v bfs_round/%d: %+v, want an executed commutative loop", noVM, idx, lr)
			}
		}
		reports[i] = rep
	}
	if a, b := reports[0].String(), reports[1].String(); a != b {
		t.Errorf("VM and tree-walker reports differ:\n%s\n----\n%s", a, b)
	}
}
