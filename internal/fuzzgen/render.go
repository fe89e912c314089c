package fuzzgen

import (
	"fmt"
	"strings"
)

// Render assembles the program spec into MiniC source. The renderer is a
// pure function of the spec: identical specs produce byte-identical
// source. Every labeled loop lives alone in its own function (IterNested
// contributes the function's two loops, outer and inner, both labeled);
// main owns the unlabeled scaffolding — allocations, worklist permutation
// fills, list builds, and the checksum folds that keep every result
// live-out all the way to program output.
func (p *Program) Render() string {
	var decls, setups, calls, consumes strings.Builder
	needNode := false
	for i := range p.Loops {
		l := &p.Loops[i]
		if l.Iter == IterList || l.Iter == IterSharedList {
			needNode = true
		}
		r := renderLoop(l)
		decls.WriteString(r.decl)
		setups.WriteString(r.setup)
		calls.WriteString(r.call)
		consumes.WriteString(r.consume)
	}
	var b strings.Builder
	if needNode {
		b.WriteString("struct FzNode { val int; next *FzNode; }\n")
	}
	b.WriteString(decls.String())
	b.WriteString("func main() {\n")
	b.WriteString(setups.String())
	b.WriteString("\tvar check int = 0;\n")
	b.WriteString(calls.String())
	b.WriteString(consumes.String())
	b.WriteString("\tprint(check);\n}\n")
	return b.String()
}

// rendered is the per-loop source contribution.
type rendered struct {
	decl    string // the loop function
	setup   string // main-side allocations and fills
	call    string // main-side invocation (folding a return into check)
	consume string // main-side checksum folds over written arrays/lists
}

// payloadNeeds describes what a payload consumes from its surroundings.
type payloadNeeds struct {
	array  bool   // an []int of Elements() cells, param "a"
	histo  bool   // an []int of Mod cells, param "h"
	alias  bool   // a second alias param "b" of the same array
	scalar string // accumulator declaration, or ""
	ret    string // return expression, or ""
}

func needsOf(l *LoopSpec) payloadNeeds {
	switch l.Payload {
	case PayDisjointWrite, PayScatterInj, PayFirstWrite, PayRecurrence, PayModWrite:
		return payloadNeeds{array: true}
	case PayAliasedWrite:
		return payloadNeeds{array: true, alias: true}
	case PayHistogram:
		return payloadNeeds{histo: true}
	case PaySumReduce:
		return payloadNeeds{scalar: "\tvar s int = 0;\n", ret: "s"}
	case PayProdReduce:
		return payloadNeeds{scalar: "\tvar s int = 1;\n", ret: "s"}
	case PayOrderedFold:
		return payloadNeeds{scalar: "\tvar s int = 0;\n", ret: "s"}
	case PayMinMax:
		return payloadNeeds{scalar: "\tvar m int = 0;\n", ret: "m"}
	case PayFloatSum:
		return payloadNeeds{scalar: "\tvar f float = 0.0;\n", ret: "int(f * 100000000.0)"}
	}
	return payloadNeeds{} // PayPure, PayIOPrint
}

// payloadStmts renders the payload for array-context iterators (range,
// worklist, nested), where `i` holds the element id in [0, n) and `n` is
// the element count. pos is the positional induction variable for
// order-weighted folds ("i" for ranges, "k" for worklists — the fold must
// weight by position, not by data, for its label argument to hold).
func payloadStmts(l *LoopSpec, indent, pos string) string {
	ind := indent
	var b strings.Builder
	if l.Noise {
		fmt.Fprintf(&b, "%svar nz int = (i + %d) * 2;\n%snz = nz %% 7;\n", ind, l.K1, ind)
	}
	switch l.Payload {
	case PayPure:
		fmt.Fprintf(&b, "%svar t int = i * %d + %d;\n%st = (t * t) %% 101;\n", ind, l.K1, l.K2, ind)
	case PayDisjointWrite:
		fmt.Fprintf(&b, "%sa[i] = i * %d + %d;\n", ind, l.K1, l.K2)
	case PaySumReduce:
		fmt.Fprintf(&b, "%ss += (i * %d + %d) %% 13;\n", ind, l.K1, l.K2)
	case PayProdReduce:
		fmt.Fprintf(&b, "%ss *= (i %% 5) * 2 + 1;\n", ind)
	case PayMinMax:
		fmt.Fprintf(&b, "%svar v int = (i * %d + %d) %% 97;\n%sif (v > m) { m = v; }\n", ind, l.K1, l.K2, ind)
	case PayHistogram:
		fmt.Fprintf(&b, "%sh[i %% %d] += i %% 3 + 1;\n", ind, l.Mod)
	case PayScatterInj:
		fmt.Fprintf(&b, "%sa[(i * %d) %% n] = i * %d + %d;\n", ind, l.Stride, l.K1, l.K2)
	case PayOrderedFold:
		fmt.Fprintf(&b, "%ss = s * 3 + %s + 1;\n", ind, pos)
	case PayFirstWrite:
		fmt.Fprintf(&b, "%sif (a[i / 2] == 0) { a[i / 2] = i + %d; }\n", ind, l.K2)
	case PayRecurrence:
		fmt.Fprintf(&b, "%sa[i] = a[i - 1] + i %% 9 + 1;\n", ind)
	case PayAliasedWrite:
		fmt.Fprintf(&b, "%sa[i] = i * %d + 1;\n%sb[n - 1 - i] = i * %d + 2;\n", ind, l.K1, ind, l.K2)
	case PayIOPrint:
		fmt.Fprintf(&b, "%sif (i %% 8 == 0) { print(i + %d); }\n", ind, l.K2)
	case PayFloatSum:
		fmt.Fprintf(&b, "%sf += 1.0 / float((i %% 17) * (i %% 17) + 1);\n", ind)
	case PayModWrite:
		fmt.Fprintf(&b, "%sa[(i * i + %d) %% n] = i + %d;\n", ind, l.K1, l.K2)
	default:
		panic(fmt.Sprintf("fuzzgen: unrendered payload %v", l.Payload))
	}
	return b.String()
}

// listPayloadStmts renders the payload for the linked-list iterator, where
// `p` walks the list and p->val holds the element id. The build in main
// pushes front, so traversal visits strictly decreasing values — which is
// what makes the ordered fold's label argument (strict rearrangement
// inequality) hold on lists too.
func listPayloadStmts(l *LoopSpec, ind string) string {
	var b strings.Builder
	if l.Noise {
		fmt.Fprintf(&b, "%svar nz int = (p->val + %d) * 2;\n%snz = nz %% 7;\n", ind, l.K1, ind)
	}
	switch l.Payload {
	case PayPure:
		fmt.Fprintf(&b, "%svar t int = p->val * %d + %d;\n%st = (t * t) %% 101;\n", ind, l.K1, l.K2, ind)
	case PayDisjointWrite:
		fmt.Fprintf(&b, "%sp->val = p->val * %d + %d;\n", ind, l.K1, l.K2)
	case PaySumReduce:
		fmt.Fprintf(&b, "%ss += (p->val * %d + %d) %% 13;\n", ind, l.K1, l.K2)
	case PayProdReduce:
		fmt.Fprintf(&b, "%ss *= (p->val %% 5) * 2 + 1;\n", ind)
	case PayMinMax:
		fmt.Fprintf(&b, "%svar v int = (p->val * %d + %d) %% 97;\n%sif (v > m) { m = v; }\n", ind, l.K1, l.K2, ind)
	case PayOrderedFold:
		fmt.Fprintf(&b, "%ss = s * 3 + p->val + 1;\n", ind)
	case PayIOPrint:
		fmt.Fprintf(&b, "%sif (p->val %% 8 == 0) { print(p->val + %d); }\n", ind, l.K2)
	case PayFloatSum:
		fmt.Fprintf(&b, "%sf += 1.0 / float((p->val %% 17) * (p->val %% 17) + 1);\n", ind)
	default:
		panic(fmt.Sprintf("fuzzgen: payload %v incompatible with list iterator", l.Payload))
	}
	return b.String()
}

func renderLoop(l *LoopSpec) rendered {
	need := needsOf(l)
	fn := l.FnName()
	s := l.Seq
	n := l.Elements()
	var r rendered

	// Main-side storage.
	arr := fmt.Sprintf("a%d", s)
	var params, args []string
	switch {
	case need.array:
		r.setup += fmt.Sprintf("\tvar %s []int = new [%d]int;\n", arr, n)
		params = append(params, "a []int")
		args = append(args, arr)
		if need.alias {
			params = append(params, "b []int")
			args = append(args, arr)
		}
		r.consume += consumeArray(arr, s, n)
	case need.histo:
		arr = fmt.Sprintf("h%d", s)
		r.setup += fmt.Sprintf("\tvar %s []int = new [%d]int;\n", arr, l.Mod)
		params = append(params, "h []int")
		args = append(args, arr)
		r.consume += consumeArray(arr, s, l.Mod)
	}

	// The function body around the payload, per iterator shape.
	var body, ret string
	if need.ret != "" {
		ret = " int"
	}
	switch l.Iter {
	case IterRangeUp, IterRangeDown, IterWorklist:
		if l.Iter == IterWorklist {
			w := fmt.Sprintf("w%d", s)
			r.setup += fmt.Sprintf("\tvar %s []int = new [%d]int;\n", w, n)
			r.setup += fmt.Sprintf("\tfor (var j%d int = 0; j%d < %d; j%d++) { %s[j%d] = (j%d * %d + %d) %% %d; }\n",
				s, s, n, s, w, s, s, l.Stride, l.K2, n)
			params = append([]string{"w []int"}, params...)
			args = append([]string{w}, args...)
		}
		params = append(params, "n int")
		args = append(args, fmt.Sprint(n))
		body = need.scalar
		switch l.Iter {
		case IterRangeUp:
			start := "0"
			if l.Payload == PayRecurrence {
				start = "1" // a[i-1] must stay in bounds
			}
			body += fmt.Sprintf("\tfor (var i int = %s; i < n; i++) {\n%s\t}\n",
				start, payloadStmts(l, "\t\t", "i"))
		case IterRangeDown:
			body += fmt.Sprintf("\tfor (var i int = n - 1; i >= 0; i--) {\n%s\t}\n",
				payloadStmts(l, "\t\t", "n - 1 - i"))
		case IterWorklist:
			body += fmt.Sprintf("\tfor (var k int = 0; k < n; k++) {\n\t\tvar i int = w[k];\n%s\t}\n",
				payloadStmts(l, "\t\t", "k"))
		}
	case IterNested:
		params = append(params, "r int", "c int")
		args = append(args, fmt.Sprint(l.Trip), fmt.Sprint(l.Inner))
		body = need.scalar
		body += fmt.Sprintf("\tfor (var x int = 0; x < r; x++) {\n"+
			"\t\tfor (var y int = 0; y < c; y++) {\n"+
			"\t\t\tvar i int = x * c + y;\n%s\t\t}\n\t}\n",
			payloadStmts(l, "\t\t\t", "i"))
		// Array payloads index with n = r*c; bind it as a local so the
		// payload text is iterator-independent.
		if need.array || l.Payload == PayModWrite {
			body = strings.Replace(body, "\tfor (var x", fmt.Sprintf("\tvar n int = %d;\n\tfor (var x", n), 1)
		}
	case IterList:
		hd := fmt.Sprintf("hd%d", s)
		r.setup += fmt.Sprintf("\tvar %s *FzNode = nil;\n", hd)
		r.setup += fmt.Sprintf("\tfor (var j%d int = 0; j%d < %d; j%d++) {\n"+
			"\t\tvar nd%d *FzNode = new FzNode;\n\t\tnd%d->val = j%d;\n\t\tnd%d->next = %s;\n\t\t%s = nd%d;\n\t}\n",
			s, s, n, s, s, s, s, s, hd, hd, s)
		params = append(params, "head *FzNode")
		args = append(args, hd)
		body = need.scalar
		body += fmt.Sprintf("\tvar p *FzNode = head;\n\twhile (p != nil) {\n%s\t\tp = p->next;\n\t}\n",
			listPayloadStmts(l, "\t\t"))
		r.consume += fmt.Sprintf("\tvar p%d *FzNode = %s;\n\twhile (p%d != nil) { check += p%d->val; p%d = p%d->next; }\n",
			s, hd, s, s, s, s)
	case IterSharedList:
		// The histogram storage comes from the payload's needs; the
		// per-node array and the shared list are this shape's own.
		hd, cells := fmt.Sprintf("hd%d", s), fmt.Sprintf("a%d", s)
		r.setup += fmt.Sprintf("\tvar %s *FzNode = nil;\n", hd)
		r.setup += fmt.Sprintf("\tfor (var j%d int = 0; j%d < %d; j%d++) {\n"+
			"\t\tvar nd%d *FzNode = new FzNode;\n\t\tnd%d->val = j%d;\n\t\tnd%d->next = %s;\n\t\t%s = nd%d;\n\t}\n",
			s, s, n, s, s, s, s, s, hd, hd, s)
		r.setup += fmt.Sprintf("\tvar %s []int = new [%d]int;\n", cells, n)
		params = append([]string{"head *FzNode", "a []int"}, params...)
		args = append([]string{hd, cells}, args...)
		params = append(params, "rounds int")
		args = append(args, fmt.Sprint(l.Trip))
		body = fmt.Sprintf("\tfor (var r int = 0; r < rounds; r++) {\n"+
			"\t\tvar p *FzNode = head;\n\t\twhile (p != nil) {\n"+
			"\t\t\ta[p->val] += r * %d + 1;\n\t\t\th[p->val %% %d] += r + %d;\n\t\t\tp = p->next;\n\t\t}\n\t}\n",
			l.K1, l.Mod, l.K2)
		r.consume += fmt.Sprintf("\tfor (var qa%d int = 0; qa%d < %d; qa%d++) { check += %s[qa%d]; }\n",
			s, s, n, s, cells, s)
	default:
		panic(fmt.Sprintf("fuzzgen: unrendered iterator %v", l.Iter))
	}

	retStmt := ""
	if need.ret != "" {
		retStmt = fmt.Sprintf("\treturn %s;\n", need.ret)
	}
	r.decl = fmt.Sprintf("func %s(%s)%s {\n%s%s}\n", fn, strings.Join(params, ", "), ret, body, retStmt)
	if need.ret != "" {
		r.call = fmt.Sprintf("\tcheck += %s(%s);\n", fn, strings.Join(args, ", "))
	} else {
		r.call = fmt.Sprintf("\t%s(%s);\n", fn, strings.Join(args, ", "))
	}
	return r
}

// consumeArray folds every cell of a main-side array into the checksum —
// a full sweep, not point reads, so divergent cells anywhere surface in
// program output (the parallel oracle compares output, not heap).
func consumeArray(name string, seq, n int) string {
	return fmt.Sprintf("\tfor (var q%d int = 0; q%d < %d; q%d++) { check += %s[q%d]; }\n",
		seq, seq, n, seq, name, seq)
}
