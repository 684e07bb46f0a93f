package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/compat"
	"repro/internal/skills"
	"repro/internal/team"
)

// batchLazyChecks is how many batch tasks are also answered by the lazy
// engine; the rest are checked against a sequential solver on the
// engine under test (the lazy oracle costs far more per task).
const batchLazyChecks = 16

// batchRun is the batch workload: parse the saved files and build the
// engine setupRepeats times (setup_s is the median), then run FormBatch
// over the distinct-task pool with no plan reuse for the measured time.
func (r *runner) batchRun() error {
	in, err := makeInputs(r.dir, r.cfg.seed, r.w.scale)
	if err != nil {
		return err
	}
	var setups []float64
	var rel compat.Relation
	for i := 0; i < setupRepeats; i++ {
		// Collect the previous set-up's engine first, so neither the
		// timing nor the process's peak memory depends on when the
		// collector happens to run.
		rel = nil
		runtime.GC()
		t := time.Now()
		if err := in.parse(nil); err != nil {
			return err
		}
		if rel, err = r.w.build(in.g); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.set("setup_s", median(setups), "s")
	pool, err := batchPool(r.cfg.seed, in.assign)
	if err != nil {
		return err
	}
	solver := team.NewSolver(rel, in.assign, team.SolverOptions{Workers: clients})
	first := make([]*team.Team, len(pool))
	answered := make([]bool, len(pool))
	var lat []sample
	tasks := 0
	start := time.Now()
	end := start.Add(secondsOf(r.cfg.seconds))
	for off := 0; time.Now().Before(end); off = (off + batchChunk) % len(pool) {
		t := time.Now()
		teams, err := solver.FormBatch(pool[off:off+batchChunk], lcmd)
		took := time.Since(t)
		if err != nil {
			for range batchChunk {
				r.tally.fail(err.Error())
			}
			continue
		}
		lat = append(lat, sample{at: time.Since(start), lat: usOf(took)})
		tasks += batchChunk
		for j, tm := range teams {
			i := off + j
			if !answered[i] {
				first[i], answered[i] = tm, true // counted by checkBatch
				continue
			}
			if why := sameTeam(tm, first[i]); why != "" {
				r.tally.wrongAnswer(fmt.Sprintf("task %v changed answer: %s", pool[i], why))
			} else {
				r.tally.ok()
			}
		}
	}
	elapsed := time.Since(start)
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, "MiB")
	w := windowStats(lat, elapsed)
	r.set("form_p50_us", w.p50, "us")
	r.set("form_p99_us", w.p99, "us")
	r.set("forms_per_s", w.busyRate*batchChunk, "1/s")
	fmt.Fprintf(os.Stderr, "  batch: %d tasks in %d FormBatch calls of %d over %.2fs\n", tasks, len(lat), batchChunk, elapsed.Seconds())
	if err := r.checkBatch(in, rel, pool, first, answered); err != nil {
		return err
	}
	r.set("ok_ratio", r.tally.okRatio(), "ratio")
	return nil
}

// batchPool draws the batch workload's distinct tasks, trimmed to a
// whole number of FormBatch chunks.
func batchPool(seed int64, a *skills.Assignment) ([]skills.Task, error) {
	pool, err := randomTasks(rand.New(rand.NewSource(seed)), a, poolTasks)
	if err != nil {
		return nil, err
	}
	if len(pool) < batchChunk {
		return nil, fmt.Errorf("only %d distinct tasks, need %d", len(pool), batchChunk)
	}
	return pool[:len(pool)/batchChunk*batchChunk], nil
}

// checkBatch compares every first answer with a sequential solver on
// the same engine, and the first batchLazyChecks with the lazy engine.
func (r *runner) checkBatch(in *inputs, rel compat.Relation, pool []skills.Task, first []*team.Team, answered []bool) error {
	seq := team.NewSolver(rel, in.assign, team.SolverOptions{Workers: 1})
	o, err := newOracle(in.g, in.assign, in.g.NumNodes()+1)
	if err != nil {
		return err
	}
	for i, t := range pool {
		if !answered[i] {
			continue
		}
		want, err := seq.Form(t, lcmd)
		if err != nil && !errors.Is(err, team.ErrNoTeam) {
			return err
		}
		why := sameTeam(first[i], want)
		if why == "" && i < batchLazyChecks {
			exp, err := o.answer(t)
			if err != nil {
				return err
			}
			why = checkTeamExpect(first[i], exp)
		}
		if why != "" {
			r.tally.wrongAnswer(fmt.Sprintf("task %v: %s", t, why))
		} else {
			r.tally.ok()
		}
	}
	return nil
}

// sameTeam compares two solver answers (nil = no team).
func sameTeam(got, want *team.Team) string {
	var e expect
	if want != nil {
		e = expect{found: true, members: sortedIDs(want.Members), cost: want.Cost}
	}
	return checkTeamExpect(got, e)
}

func checkTeamExpect(got *team.Team, want expect) string {
	if got == nil {
		return want.check(false, nil, 0)
	}
	return want.check(true, got.Members, got.Cost)
}
