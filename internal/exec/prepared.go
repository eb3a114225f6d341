package exec

import (
	"fmt"

	"staticpipe/internal/graph"
	"staticpipe/internal/value"
)

// Prepared is a graph readied for repeated execution: validated,
// FIFO-expanded and decoded into the lane engine's flat instruction form
// exactly once. Everything here depends only on the graph, so a run over a
// warm Prepared allocates just its own token, position, counter and sink
// state, whatever the graph's size.
//
// A Prepared is immutable after construction and safe for concurrent Run
// calls — this is the execution half of the artifact-cache contract: one
// compiled artifact, shared across goroutines, bound to per-run inputs via
// Options.Inputs instead of graph mutation.
type Prepared struct {
	g *graph.Graph

	insts []bInst
	lits  []value.Value // the graph's literal operands (see bInst.ins)

	arcFrom []int32
	arcTo   []int32
	arcPort []int32

	sinkLabels []string        // label per dense sink index
	sources    []graph.NodeID  // node ID per dense source index
	srcLabels  map[string]bool // source labels, for input-name checks
}

// Prepare validates g, expands its FIFO cells and decodes the result,
// returning the reusable execution artifact. The expansion and decode work
// (and their allocation) are paid here once instead of on every Run.
func Prepare(g *graph.Graph) (*Prepared, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	eg := g.ExpandFIFOs()
	if err := eg.Validate(); err != nil {
		return nil, fmt.Errorf("exec: expanded graph invalid: %w", err)
	}
	return decode(eg)
}

// Graph returns the validated, FIFO-expanded graph the Prepared runs.
// Callers must treat it as read-only.
func (p *Prepared) Graph() *graph.Graph { return p.g }

// decode builds the flat instruction form of g. Every table is allocated
// once, so decoding costs a fixed number of allocations for any graph.
func decode(g *graph.Graph) (*Prepared, error) {
	nn, na := g.NumNodes(), g.NumArcs()
	nIn, nOut, nLit, nSink, nSrc := 0, 0, 0, 0, 0
	for _, n := range g.Nodes() {
		nIn += len(n.In)
		nOut += len(n.Out)
		for _, in := range n.In {
			if in.Literal != nil {
				nLit++
			}
		}
		switch n.Op {
		case graph.OpSink:
			nSink++
		case graph.OpSource:
			nSrc++
		}
	}
	ints := make([]int32, 2*nIn+3*na)
	ins, cins := ints[:nIn:nIn], ints[nIn:2*nIn:2*nIn]
	outs := make([]bOut, nOut)
	p := &Prepared{
		g:          g,
		insts:      make([]bInst, nn),
		lits:       make([]value.Value, 0, nLit),
		arcFrom:    ints[2*nIn : 2*nIn+na : 2*nIn+na],
		arcTo:      ints[2*nIn+na : 2*nIn+2*na : 2*nIn+2*na],
		arcPort:    ints[2*nIn+2*na:],
		sinkLabels: make([]string, 0, nSink),
		sources:    make([]graph.NodeID, 0, nSrc),
		srcLabels:  map[string]bool{},
	}
	seenSinks := map[string]bool{}
	for _, n := range g.Nodes() {
		inst := &p.insts[n.ID]
		inst.node = n
		inst.op = n.Op
		inst.sink = -1
		inst.src = -1
		k := len(n.In)
		inst.ins, ins = ins[:k:k], ins[k:]
		inst.cins, cins = cins[:0:k], cins[k:]
		for port, in := range n.In {
			if in.Literal != nil { // Validate rejects unbound ports
				p.lits = append(p.lits, *in.Literal)
				inst.ins[port] = -int32(len(p.lits))
				continue
			}
			inst.ins[port] = int32(in.Arc.ID)
			inst.cins = append(inst.cins, int32(in.Arc.ID))
		}
		k = len(n.Out)
		inst.outs, outs = outs[:k:k], outs[k:]
		gated := false
		for i, a := range n.Out {
			inst.outs[i] = bOut{aid: int32(a.ID), gate: int32(a.Gate)}
			gated = gated || a.Gate != graph.NoGate
		}
		switch n.Op {
		case graph.OpSink:
			if seenSinks[n.Label] {
				return nil, fmt.Errorf("exec: duplicate sink label %q", n.Label)
			}
			seenSinks[n.Label] = true
			inst.sink = int32(len(p.sinkLabels))
			p.sinkLabels = append(p.sinkLabels, n.Label)
			if len(inst.cins) > 0 && !gated {
				inst.shape = bShapeSink
			}
		case graph.OpSource:
			inst.src = int32(len(p.sources))
			p.sources = append(p.sources, n.ID)
			p.srcLabels[n.Label] = true
			if !gated {
				inst.shape = bShapeSource
			}
		case graph.OpCtlGen, graph.OpMerge, graph.OpTGate, graph.OpFGate:
			// plan shape varies with token values: exact per-lane path
		default:
			if !gated {
				inst.shape = bShapeApply
			}
		}
	}
	for _, a := range g.Arcs() {
		p.arcFrom[a.ID] = int32(a.From)
		p.arcTo[a.ID] = int32(a.To)
		p.arcPort[a.ID] = int32(a.ToPort)
	}
	return p, nil
}

// lit returns the literal an operand entry below zero names.
func (p *Prepared) lit(entry int32) value.Value { return p.lits[-entry-1] }
