package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/compat"
	"repro/internal/kernels"
	"repro/internal/serve"
	"repro/internal/sgraph"
	"repro/internal/signedbfs"
	"repro/internal/skills"
	"repro/internal/team"
)

// Traced-run sizes.
const (
	loopbackOps  = 1000 // read requests replayed over loopback
	loopbackRate = 1000 // their offered rate per second
	mutProbes    = 3    // flips applied when the stream has none
	topkProbes   = 16   // diverse top-k calls when the stream has none
	bfsProbes    = 256  // CountPathsInto sources
	kernelCalls  = 256  // kernel calls per span
	hotReplayOps = 1 << 14
)

// traced is the per-layer run. It hosts serve.New in process over the
// engine tfsnd would build, replays the workload's stream through the
// handler and then through the library, and records spans around each
// call into a layer. Spans wrap calls; the relation and solver are
// never wrapped, because the solver type-switches on the concrete
// engine to reach its packed fast paths.
func (r *runner) traced() error {
	if r.w.procs > 0 {
		// The engine's rebuild workers and the solver size themselves
		// by GOMAXPROCS, as they do in tfsnd.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(r.w.procs))
		r.env["engine_gomaxprocs"] = fmt.Sprint(r.w.procs)
	}
	tr := newTracer()
	in, err := makeInputs(r.dir, r.cfg.seed, r.w.scale)
	if err != nil {
		return err
	}
	for i := 0; i < setupRepeats; i++ {
		if err := in.parse(tr); err != nil {
			return err
		}
	}
	var rel compat.Relation
	for i := 0; i < setupRepeats; i++ {
		sp := tr.begin("compat.Build", -1, 0)
		rel, err = r.w.build(in.g)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	if c, ok := rel.(interface{ Close() error }); ok {
		defer c.Close()
	}
	mr, ok := rel.(compat.MutableRelation)
	if !ok {
		return fmt.Errorf("engine %s is not mutable", r.w.engine.Name)
	}
	packed, ok := rel.(compat.PackedRelation)
	if !ok {
		return fmt.Errorf("engine %s is not packed", r.w.engine.Name)
	}
	pool, ops, err := r.streamOf(in)
	if err != nil {
		return err
	}
	mut0 := mr.MutationStats()
	s := serve.New(rel, in.assign, serve.Options{PlanCache: planCache, Queue: 64, Engine: r.w.engine.Name, EnableMutations: r.w.mutations})
	budget := secondsOf(r.cfg.seconds)

	// Pass 1: the stream through the in-process handler.
	st0, err := serverStats(s)
	if err != nil {
		return err
	}
	pc0 := s.Solver().PlanCacheStats()
	end := time.Now().Add(budget * 3 / 10)
	for i := range ops {
		if time.Now().After(end) {
			break
		}
		req := httptest.NewRequest(ops[i].method, ops[i].target, nil)
		rec := httptest.NewRecorder()
		root := tr.begin("bench.request", -1, int64(i))
		sp := tr.begin("serve.Handler.ServeHTTP", root, int64(i))
		s.Handler().ServeHTTP(rec, req)
		tr.end(sp)
		tr.end(root)
		checkOp(r.tally, in, pool, &ops[i], rec.Code, rec.Body.Bytes(), nil)
	}
	st1, err := serverStats(s)
	if err != nil {
		return err
	}
	pc1 := s.Solver().PlanCacheStats()
	hand := tr.durations("serve.Handler.ServeHTTP")
	r.set("serve.handler_us.p50", quantile(hand, 0.5), "us")
	r.set("serve.handler_us.p99", quantile(hand, 0.99), "us")
	r.set("serve.shed", float64(st1.Shed-st0.Shed), "count")
	r.set("serve.deadline_exceeded", float64(st1.DeadlineExceeded-st0.DeadlineExceeded), "count")
	hits, misses := pc1.Hits-pc0.Hits, pc1.Misses-pc0.Misses
	r.set("team.plan_hit_ratio", float64(hits)/float64(max(1, hits+misses)), "ratio")
	r.set("team.plan_lookups", float64(hits+misses), "count")

	// Pass 2: the same stream through the library, on a solver
	// configured as the server's.
	r.libraryPass(tr, in, pool, ops, rel, mr, packed, time.Now().Add(budget*3/10))

	// Pass 3: FormBatch over the task pool with no plan reuse.
	bs := team.NewSolver(rel, in.assign, team.SolverOptions{Workers: clients})
	chunk := min(batchChunk, len(pool))
	end = time.Now().Add(budget / 10)
	for off := 0; ; off += chunk {
		if off+chunk > len(pool) {
			off = 0
		}
		sp := tr.begin("team.Solver.FormBatch", -1, 0)
		teams, err := bs.FormBatch(pool[off:off+chunk], lcmd)
		tr.end(sp)
		if err != nil {
			r.tally.fail(err.Error())
		} else {
			for j, tm := range teams {
				if tm == nil {
					r.tally.ok()
				} else if why := checkTeam(in.assign, pool[off+j], tm.Members, nil, nil); why != "" {
					r.tally.wrongAnswer(why)
				} else {
					r.tally.ok()
				}
			}
		}
		if time.Now().After(end) {
			break
		}
	}
	batchUs, calls := tr.total("team.Solver.FormBatch")
	r.set("team.batch_us_per_task", batchUs/float64(calls*chunk), "us")

	// Loopback against the in-process server, plus the tracing
	// overhead on the same requests.
	if err := r.loopback(tr, s, in, pool, ops); err != nil {
		return err
	}

	// Layer probes on the workload's graph and engine.
	r.probeLayers(tr, in, packed)
	r.mutationProbes(tr, in, pool, ops, mr, packed, mut0)
	r.set("compat.build_ms", median(tr.durations("compat.Build"))/1e3, "ms")
	r.set("sgraph.read_edges_ms", median(tr.durations("sgraph.ReadEdgeList"))/1e3, "ms")
	r.set("skills.read_tsv_ms", median(tr.durations("skills.ReadTSV"))/1e3, "ms")

	tr.printSelfTimes(os.Stderr)
	path := filepath.Join(r.cfg.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.cfg.seed))
	fmt.Fprintf(os.Stderr, "  %d spans written to %s\n", len(tr.spans), path)
	return tr.write(path)
}

// streamOf rebuilds the end-to-end run's task pool and operation
// stream from the seed.
func (r *runner) streamOf(in *inputs) ([]skills.Task, []op, error) {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	switch {
	case r.w.name == "batch":
		pool, err := batchPool(r.cfg.seed, in.assign)
		if err != nil {
			return nil, nil, err
		}
		ops := make([]op, len(pool))
		for i, t := range pool {
			ops[i] = op{kind: opForm, task: i, method: "GET", target: formTarget(in.assign.Universe(), t, nil, nil)}
		}
		return pool, ops, nil
	case r.w.mutations:
		pool, err := randomTasks(rng, in.assign, poolTasks)
		if err != nil {
			return nil, nil, err
		}
		return pool, mixedOps(rng, in, pool, secondsOf(r.cfg.seconds)), nil
	default:
		pool, err := randomTasks(rng, in.assign, hotTasks)
		if err != nil {
			return nil, nil, err
		}
		targets := make([]string, len(pool))
		for i, t := range pool {
			targets[i] = formTarget(in.assign.Universe(), t, nil, nil)
		}
		return pool, hotOps((r.cfg.seed+1)*clients, targets, hotReplayOps), nil
	}
}

// serverStats reads the server counters through the in-process /stats.
func serverStats(s *serve.Server) (serve.ServerStats, error) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var p struct {
		Server serve.ServerStats `json:"server"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		return serve.ServerStats{}, fmt.Errorf("/stats: %w", err)
	}
	return p.Server, nil
}

// libraryPass replays ops through team.Solver and the engine's
// mutation surface, with a span per call.
func (r *runner) libraryPass(tr *tracer, in *inputs, pool []skills.Task, ops []op, rel compat.Relation,
	mr compat.MutableRelation, packed compat.PackedRelation, end time.Time) {
	solver := team.NewSolver(rel, in.assign, team.SolverOptions{PlanCache: planCache})
	var tm team.Team
	var dirty []float64
	for i := range ops {
		if time.Now().After(end) {
			break
		}
		o := &ops[i]
		req := int64(i)
		switch o.kind {
		case opForm:
			opts := lcmd
			opts.Constraints = team.Constraints{MustInclude: o.include, MustExclude: o.exclude}
			root := tr.begin("team.form", -1, req)
			sp := tr.begin("team.Solver.Plan", root, req)
			misses := solver.PlanCacheStats().Misses
			p, err := solver.Plan(pool[o.task], opts)
			tr.end(sp)
			if solver.PlanCacheStats().Misses > misses {
				tr.rename(sp, "team.Solver.Plan/compile")
			}
			if err == nil {
				sp = tr.begin("team.TaskPlan.FormInto", root, req)
				err = p.FormInto(&tm)
				tr.end(sp)
			}
			tr.end(root)
			r.checkSolve(in, pool[o.task], o, &tm, err)
		case opTopK:
			sp := tr.begin("team.Solver.FormTopKDiverse", -1, req)
			teams, err := solver.FormTopKDiverse(pool[o.task], lcmd, topkK, topkLambda)
			tr.end(sp)
			r.checkTopK(in, pool[o.task], teams, err)
		case opMutate:
			sp := tr.begin("compat.MutableRelation.Mutate", -1, req)
			res, err := mr.Mutate(o.mut)
			tr.end(sp)
			if err != nil {
				r.tally.fail(err.Error())
				continue
			}
			r.tally.ok()
			dirty = append(dirty, float64(res.DirtyShards))
			r.readHolders(tr, in, pool, ops[i+1:], packed, req)
		}
	}
	if len(dirty) > 0 {
		r.set("compat.dirty_shards_per_mutation", mean(dirty), "count")
	}
}

// readHolders performs the first reads after a mutation: the rows of
// every holder of the next read's task, which is what that read's plan
// compilation touches first.
func (r *runner) readHolders(tr *tracer, in *inputs, pool []skills.Task, rest []op, packed compat.PackedRelation, req int64) {
	t := pool[0]
	for _, o := range rest {
		if o.kind != opMutate {
			t = pool[o.task]
			break
		}
	}
	sp := tr.begin("compat.PackedRelation.RowWords", -1, req)
	words := 0
	for _, s := range t {
		for _, u := range in.assign.Holders(s) {
			words += len(packed.RowWords(u))
		}
	}
	tr.end(sp)
	if words == 0 {
		r.tally.wrongAnswer("holder rows are empty")
	}
}

func (r *runner) checkSolve(in *inputs, t skills.Task, o *op, tm *team.Team, err error) {
	switch {
	case errors.Is(err, team.ErrNoTeam):
		r.tally.ok()
	case err != nil:
		r.tally.fail(err.Error())
	default:
		if why := checkTeam(in.assign, t, tm.Members, o.include, o.exclude); why != "" {
			r.tally.wrongAnswer(why)
		} else {
			r.tally.ok()
		}
	}
}

func (r *runner) checkTopK(in *inputs, t skills.Task, teams []*team.Team, err error) {
	switch {
	case errors.Is(err, team.ErrNoTeam):
		r.tally.ok()
	case err != nil:
		r.tally.fail(err.Error())
	case len(teams) == 0 || len(teams) > topkK:
		r.tally.wrongAnswer(fmt.Sprintf("%d top-k teams for k=%d", len(teams), topkK))
	default:
		for _, tm := range teams {
			if why := checkTeam(in.assign, t, tm.Members, nil, nil); why != "" {
				r.tally.wrongAnswer(why)
				return
			}
		}
		r.tally.ok()
	}
}

// loopback measures the same read requests three ways: through the
// handler in process untraced and traced (their ratio is the tracing
// overhead), and over loopback HTTP at a fixed rate (its p50 minus the
// in-process p50 is what handler work cannot reach).
func (r *runner) loopback(tr *tracer, s *serve.Server, in *inputs, pool []skills.Task, ops []op) error {
	var reads []op
	for _, o := range ops {
		if o.kind != opMutate && len(reads) < loopbackOps {
			o.due = time.Duration(len(reads)) * time.Second / loopbackRate
			reads = append(reads, o)
		}
	}
	inproc := func(traced bool) (time.Duration, []float64) {
		lat := make([]float64, 0, len(reads))
		start := time.Now()
		for i := range reads {
			req := httptest.NewRequest(reads[i].method, reads[i].target, nil)
			rec := httptest.NewRecorder()
			var root, sp int32 = -1, -1
			if traced {
				root = tr.begin("bench.request", -1, int64(i))
				sp = tr.begin("serve.Handler.ServeHTTP/overhead", root, int64(i))
			}
			t := time.Now()
			s.Handler().ServeHTTP(rec, req)
			lat = append(lat, usOf(time.Since(t)))
			if traced {
				tr.end(sp)
				tr.end(root)
			}
			checkOp(r.tally, in, pool, &reads[i], rec.Code, rec.Body.Bytes(), nil)
		}
		return time.Since(start), lat
	}
	// A warm-up pass, then untraced and traced passes in ABBA order so
	// cache warmth and drift cancel out of the ratio.
	inproc(false)
	var plain, traced time.Duration
	var lat []float64
	for _, on := range []bool{false, true, true, false} {
		d, l := inproc(on)
		if on {
			traced += d
		} else {
			plain += d
			lat = append(lat, l...)
		}
	}
	r.set("trace.overhead_ratio", traced.Seconds()/plain.Seconds(), "ratio")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	recs, _ := openLoop(ln.Addr().String(), reads, func(i, code int, body []byte, rec *record) {
		checkOp(r.tally, in, pool, &reads[i], code, body, rec)
	})
	if err := hs.Close(); err != nil {
		return err
	}
	if err := <-done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	var wire []float64
	for i := range recs {
		if !recs[i].failed {
			wire = append(wire, usOf(recs[i].done-recs[i].sent))
		}
	}
	r.set("serve.net_us.p50", quantile(wire, 0.5)-quantile(lat, 0.5), "us")
	lag := lagP99Ms(reads, recs)
	r.set("loadgen.lag_p99_ms", lag, "ms")
	if lag > lagBoundMs {
		r.tally.invalid(fmt.Sprintf("dispatcher lateness p99 %.1f ms > %.0f ms", lag, lagBoundMs))
	}
	return nil
}

// probeLayers times the BFS and kernel layers on the workload's graph
// and rows, and sgraph.Dynamic.Apply on its edges.
func (r *runner) probeLayers(tr *tracer, in *inputs, packed compat.PackedRelation) {
	g := in.g
	n := g.NumNodes()
	scratch := signedbfs.NewScratch(n)
	var res signedbfs.Result
	for i := 0; i < min(bfsProbes, n); i++ {
		sp := tr.begin("signedbfs.CountPathsInto", -1, 0)
		signedbfs.CountPathsInto(g, sgraph.NodeID(i*n/min(bfsProbes, n)), &res, scratch)
		tr.end(sp)
	}
	r.set("signedbfs.row_us.p50", median(tr.durations("signedbfs.CountPathsInto")), "us")

	words := packed.WordsPerRow()
	mask := packed.RowWords(0)
	sink := 0
	for k := 0; k < 8; k++ {
		sp := tr.begin("kernels.AndCount", -1, 0)
		for i := 0; i < kernelCalls; i++ {
			sink += kernels.AndCount(packed.RowWords(sgraph.NodeID((k*kernelCalls+i)%n)), mask)
		}
		tr.end(sp)
	}
	r.set("kernels.andcount_ns_per_row", median(tr.durations("kernels.AndCount"))*1e3/kernelCalls, "ns")
	r.set("kernels.andcount_bytes_per_row", float64(2*8*words), "B")

	// Distance rows of a five-member team, packed as the engines pack
	// them (one byte per node, Undefined where no distance exists).
	const teamRows = 5
	rows := make([][]uint8, teamRows)
	wide := make([]int32, n)
	for i := range rows {
		rows[i] = make([]uint8, n)
		wide = packed.DistanceRowInto(sgraph.NodeID(i*n/teamRows), wide)
		for v, d := range wide {
			if d < 0 || d >= kernels.Undefined {
				rows[i][v] = kernels.Undefined
			} else {
				rows[i][v] = uint8(d)
			}
		}
	}
	holder := make([]uint64, words)
	for i := range holder {
		holder[i] = ^uint64(0)
	}
	if tail := n % 64; tail != 0 {
		holder[words-1] = 1<<tail - 1
	}
	for k := 0; k < 8; k++ {
		sp := tr.begin("kernels.ArgminMaxU8", -1, 0)
		for i := 0; i < kernelCalls; i++ {
			idx, _, _ := kernels.ArgminMaxU8(rows, holder, packed.RowWords(sgraph.NodeID((k*kernelCalls+i)%n)))
			sink += idx
		}
		tr.end(sp)
	}
	r.set("kernels.argmin_ns_per_row", median(tr.durations("kernels.ArgminMaxU8"))*1e3/(kernelCalls*teamRows), "ns")
	// Upper bound per row: every lane of the row, plus this row's share
	// of the holder and mask words.
	r.set("kernels.argmin_bytes_per_row", float64(n)+float64(2*8*words)/teamRows, "B")
	if sink == -1 {
		fmt.Fprintln(os.Stderr, sink)
	}

	dyn := sgraph.NewDynamic(g)
	edges := g.Edges()
	rng := rand.New(rand.NewSource(r.cfg.seed))
	for i := 0; i < 64; i++ {
		e := edges[rng.Intn(len(edges))]
		sp := tr.begin("sgraph.Dynamic.Apply", -1, 0)
		_, _, err := dyn.Apply(sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V})
		tr.end(sp)
		if err != nil {
			r.tally.fail(err.Error())
		}
	}
	r.set("sgraph.apply_us", median(tr.durations("sgraph.Dynamic.Apply")), "us")
}

// mutationProbes fills the mutation and top-k layer metrics: from the
// replayed stream when it had such operations, otherwise from a few
// probe calls on the workload's engine, made last because a flip
// invalidates engine state.
func (r *runner) mutationProbes(tr *tracer, in *inputs, pool []skills.Task, ops []op,
	mr compat.MutableRelation, packed compat.PackedRelation, mut0 compat.MutationStats) {
	if len(tr.durations("team.Solver.FormTopKDiverse")) == 0 {
		solver := team.NewSolver(mr, in.assign, team.SolverOptions{PlanCache: planCache})
		for i := 0; i < min(topkProbes, len(pool)); i++ {
			sp := tr.begin("team.Solver.FormTopKDiverse", -1, 0)
			teams, err := solver.FormTopKDiverse(pool[i], lcmd, topkK, topkLambda)
			tr.end(sp)
			r.checkTopK(in, pool[i], teams, err)
		}
	}
	if len(tr.durations("compat.MutableRelation.Mutate")) == 0 {
		edges := in.g.Edges()
		rng := rand.New(rand.NewSource(r.cfg.seed + 7))
		var dirty []float64
		for i := 0; i < mutProbes; i++ {
			e := edges[rng.Intn(len(edges))]
			sp := tr.begin("compat.MutableRelation.Mutate", -1, 0)
			res, err := mr.Mutate(sgraph.Mutation{Op: sgraph.MutFlip, U: e.U, V: e.V})
			tr.end(sp)
			if err != nil {
				r.tally.fail(err.Error())
				continue
			}
			r.tally.ok()
			dirty = append(dirty, float64(res.DirtyShards))
			r.readHolders(tr, in, pool, ops[i%len(ops):], packed, 0)
		}
		r.set("compat.dirty_shards_per_mutation", mean(dirty), "count")
	}
	mut1 := mr.MutationStats()
	rowsPer := float64(packed.NumNodes())
	if sm, ok := mr.(*compat.ShardedMatrix); ok {
		rowsPer = float64(sm.ShardRows())
	}
	rebuilds := mut1.ShardRebuilds - mut0.ShardRebuilds
	r.set("compat.shard_rebuilds", float64(rebuilds), "count")
	r.set("signedbfs.rows_per_mutation", float64(rebuilds)*rowsPer/float64(max(1, mut1.Mutations-mut0.Mutations)), "count")
	r.set("compat.mutate_us.p50", median(tr.durations("compat.MutableRelation.Mutate")), "us")
	r.set("compat.rebuild_ms.p50", median(tr.durations("compat.PackedRelation.RowWords"))/1e3, "ms")
	r.set("team.topk_diverse_us.p50", median(tr.durations("team.Solver.FormTopKDiverse")), "us")
	plans := tr.durations("team.Solver.Plan/compile")
	r.set("team.plan_compile_us.p50", median(plans), "us")
	forms := tr.durations("team.form")
	r.set("team.form_us.p50", quantile(forms, 0.5), "us")
	r.set("team.form_us.p99", quantile(forms, 0.99), "us")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
