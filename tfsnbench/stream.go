package main

import (
	"math/rand"
	"time"

	"repro/internal/sgraph"
	"repro/internal/skills"
)

type opKind uint8

const (
	opForm opKind = iota
	opTopK
	opMutate
)

// op is one request of a workload's stream.
type op struct {
	kind             opKind
	task             int // index into the task pool (reads)
	include, exclude []sgraph.NodeID
	mut              sgraph.Mutation // opMutate: a flip of an existing edge
	due              time.Duration   // open-loop send time from the start
	method, target   string
}

// hotZipf draws serve-hot's task indices for one client: zipfian
// popularity over the fixed pool of n tasks.
func hotZipf(seed int64, n int) *rand.Zipf {
	return rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(n-1))
}

// hotOps is a finite serve-hot stream: the traced replay of the first
// measured connection's stream.
func hotOps(seed int64, targets []string, n int) []op {
	z := hotZipf(seed, len(targets))
	ops := make([]op, n)
	for i := range ops {
		t := int(z.Uint64())
		ops[i] = op{kind: opForm, task: t, method: "GET", target: targets[t]}
	}
	return ops
}

// mixedOps is serve-mixed's open-loop schedule over d: reads at
// mixedRate per second (one in topkEvery a diverse top-k; of the other
// reads, one in five must include a holder of a task skill and one in
// five must exclude two random users) and mixedFlips edge flips per
// second. Flip targets
// are edges of g, the benchmark's parse of the daemon's input file, so
// they name the edges the daemon holds.
func mixedOps(rng *rand.Rand, in *inputs, pool []skills.Task, d time.Duration) []op {
	u := in.assign.Universe()
	edges := in.g.Edges()
	n := in.g.NumNodes()
	readGap := time.Second / mixedRate
	flipGap := time.Second / mixedFlips
	var ops []op
	nextFlip := flipGap / 2
	for i := 0; ; i++ {
		due := time.Duration(i) * readGap
		if due >= d {
			break
		}
		for nextFlip <= due {
			e := edges[rng.Intn(len(edges))]
			m := sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V}
			ops = append(ops, op{kind: opMutate, mut: m, due: nextFlip, method: "POST", target: mutateTarget(m)})
			nextFlip += flipGap
		}
		t := rng.Intn(len(pool))
		o := op{kind: opForm, task: t, due: due, method: "GET"}
		switch {
		case i%topkEvery == topkEvery-1:
			o.kind = opTopK
			o.target = topkTarget(u, pool[t])
		case i%5 == 1:
			holders := in.assign.Holders(pool[t][rng.Intn(len(pool[t]))])
			o.include = []sgraph.NodeID{holders[rng.Intn(len(holders))]}
		case i%5 == 3:
			o.exclude = []sgraph.NodeID{sgraph.NodeID(rng.Intn(n)), sgraph.NodeID(rng.Intn(n))}
		}
		if o.kind == opForm {
			o.target = formTarget(u, pool[t], o.include, o.exclude)
		}
		ops = append(ops, o)
	}
	return ops
}
