package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/sgraph"
	"repro/internal/skills"
)

// selftestScale keeps every workload's graph tiny (~290 users).
const selftestScale = 0.01

// benchSpec is the part of BENCHMARK.json the self-test checks.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runSelftest runs every workload of BENCHMARK.json for one second at
// tiny scale, untraced and traced, and checks that each prints exactly
// its metrics with their units, that nothing failed, and that the
// answer checkers reject deliberately corrupted answers.
func runSelftest(cfg config) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(spec.Workloads) != len(workloadList) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadList))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			c := cfg
			c.workload, c.seconds, c.trace, c.scale = w.Name, 1, trace, selftestScale
			res, err := run(c)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.Name, trace, err)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if err := checkResult(res, want); err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.Name, trace, err)
			}
		}
	}
	return checkCheckers(cfg)
}

// checkResult holds a result line to the contract: correct, no failed
// operation, and exactly the wanted metrics with their units.
func checkResult(res *result, want []specMetric) error {
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		return fmt.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%d metrics printed, %d named", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not printed", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s in %q, named in %q", m.Name, got.Unit, m.Unit)
		}
	}
	return nil
}

// checkCheckers feeds the answer checkers a correct answer and
// corrupted copies of it; each corruption must be caught.
func checkCheckers(cfg config) error {
	dir, err := os.MkdirTemp(ensureDir(cfg.work), "selftest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	in, err := makeInputs(dir, 1, selftestScale)
	if err != nil {
		return err
	}
	o, err := newOracle(in.g, in.assign, in.g.NumNodes()+1)
	if err != nil {
		return err
	}
	tasks, err := randomTasks(rand.New(rand.NewSource(1)), in.assign, 256)
	if err != nil {
		return err
	}
	for _, t := range tasks {
		want, err := o.answer(t)
		if err != nil {
			return err
		}
		if !want.found || len(want.members) < 2 {
			continue
		}
		good := want.members
		if why := want.check(true, good, want.cost); why != "" {
			return fmt.Errorf("checker rejects a correct answer: %s", why)
		}
		if why := checkTeam(in.assign, t, good, nil, nil); why != "" {
			return fmt.Errorf("checker rejects a correct team: %s", why)
		}
		outsider := sgraph.NodeID(0)
		for slices.Contains(good, outsider) {
			outsider++
		}
		swapped := append([]sgraph.NodeID{outsider}, good[1:]...)
		body, _ := json.Marshal(reply{Found: true, Members: good, Cost: want.cost + 1})
		corrupt := map[string]string{
			"cost off by one":   checkExact(200, body, want),
			"member swapped":    want.check(true, swapped, want.cost),
			"not found":         want.check(false, nil, 0),
			"excluded member":   checkTeam(in.assign, t, good, nil, good[:1]),
			"required missing":  checkTeam(in.assign, t, good[1:], good[:1], nil),
			"repeated member":   checkTeam(in.assign, t, append(slices.Clone(good), good[0]), nil, nil),
			"empty found team":  checkTeam(in.assign, t, nil, nil, nil),
			"undecodable reply": checkFormBody([]byte("{"), in.assign, t, nil, nil),
		}
		for name, why := range corrupt {
			if why == "" {
				return fmt.Errorf("checker missed a corrupted answer (%s) for task %v", name, t)
			}
		}
		return checkLiveCorruption(cfg, in, t)
	}
	return errors.New("no task with a multi-member team to corrupt")
}

// checkLiveCorruption drives a real tfsnd through the serve-hot loop
// with the expected answer for t corrupted: the run must flag it.
func checkLiveCorruption(cfg config, in *inputs, t skills.Task) error {
	w, _ := workloadByName("serve-hot")
	d, _, err := startDaemon(cfg.tfsnd, w.daemonArgs(in), w.procs, filepath.Dir(in.edgesPath))
	if err != nil {
		return err
	}
	defer d.kill()
	targets := []string{formTarget(in.assign.Universe(), t, nil, nil)}
	canon := [][]byte{[]byte(`{"found":true,"members":[0],"cost":0}` + "\n")}
	tl := newTally()
	closedLoop(d.addr, 1, targets, canon, 200*time.Millisecond, tl)
	if res := tl.result(nil); res.Correct || res.Failed == 0 {
		return fmt.Errorf("a corrupted expected answer went unnoticed (correct=%v, %d failed)", res.Correct, res.Failed)
	}
	return d.stop()
}
