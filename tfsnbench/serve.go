package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/sgraph"
	"repro/internal/skills"
)

// serveRun is the end-to-end run of a serve-* workload: generate and
// save the inputs, start tfsnd setupRepeats times (setup_s is the
// median), drive the last instance, then check and report.
func (r *runner) serveRun() error {
	in, err := makeInputs(r.dir, r.cfg.seed, r.w.scale)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.cfg.seed))
	n := hotTasks
	if r.w.mutations {
		n = poolTasks
	}
	pool, err := randomTasks(rng, in.assign, n)
	if err != nil {
		return err
	}
	var setups []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			// tfsnd installs its SIGTERM handler just after printing its
			// address, so a stop this soon after start may find the
			// default action still in place: exiting on the signal is
			// a clean stop here.
			if err := d.stop(); err != nil && !killedBy(err, syscall.SIGTERM) {
				return err
			}
		}
		var took time.Duration
		if d, took, err = startDaemon(r.cfg.tfsnd, r.w.daemonArgs(in), r.w.procs, r.dir); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.kill()
	r.set("setup_s", median(setups), "s")
	if r.env["tfsnd_kernels"], err = d.kernels(); err != nil {
		return err
	}
	if r.w.procs > 0 {
		r.env["engine_gomaxprocs"] = fmt.Sprint(r.w.procs)
	}
	if r.w.mutations {
		err = r.mixedLoad(d.addr, in, pool, rng)
	} else {
		err = r.hotLoad(d.addr, in, pool)
	}
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, "MiB")
	r.set("ok_ratio", r.tally.okRatio(), "ratio")
	return d.stop()
}

// hotLoad is serve-hot: every answer is checked byte for byte against
// the first answer for its task, which itself was checked against the
// oracle.
func (r *runner) hotLoad(addr string, in *inputs, pool []skills.Task) error {
	o, err := newOracle(in.g, in.assign, in.g.NumNodes()+1)
	if err != nil {
		return err
	}
	targets := make([]string, len(pool))
	canon := make([][]byte, len(pool))
	c, err := dial(addr)
	if err != nil {
		return err
	}
	for i, t := range pool {
		targets[i] = formTarget(in.assign.Universe(), t, nil, nil)
		code, body, err := c.do("GET", targets[i])
		if err != nil {
			c.close()
			return err
		}
		want, err := o.answer(t)
		if err != nil {
			c.close()
			return err
		}
		if why := checkExact(code, body, want); why != "" {
			r.tally.wrongAnswer(fmt.Sprintf("task %v: %s", t, why))
		}
		canon[i] = slices.Clone(body)
	}
	c.close()
	// One warm second, checked but not recorded, then the measurement.
	closedLoop(addr, r.cfg.seed, targets, canon, time.Second, newTally())
	lat, elapsed := closedLoop(addr, r.cfg.seed+1, targets, canon, secondsOf(r.cfg.seconds), r.tally)
	w := windowStats(lat, elapsed)
	r.set("form_p50_us", w.p50, "us")
	r.set("form_p99_us", w.p99, "us")
	r.set("forms_per_s", w.rate, "1/s")
	fmt.Fprintf(os.Stderr, "  serve-hot: %d /form in %.2fs over %d connections, %d windows\n", len(lat), elapsed.Seconds(), clients, w.n)
	return nil
}

// sample is one successful request: when it finished (from the start
// of the measurement) and how long it took.
type sample struct {
	at  time.Duration
	lat float64 // µs
}

// windows are per-window medians: the measurement is cut into
// windowLen windows, each window's rate, p50 and p99 are computed, and
// the median of each across windows is reported, so a burst of
// interference on the shared host moves one window, not the result.
// busyRate is samples per second of their summed latency: the rate of
// back-to-back calls without the quantisation of counting whole calls
// in a window.
type windows struct {
	rate, busyRate, p50, p99 float64
	n                        int
}

const windowLen = time.Second

func windowStats(ss []sample, elapsed time.Duration) windows {
	n := max(1, int(elapsed/windowLen))
	per := make([][]float64, n)
	for _, s := range ss {
		i := min(int(s.at/windowLen), n-1)
		per[i] = append(per[i], s.lat)
	}
	var rate, busyRate, p50, p99 []float64
	for i, l := range per {
		span := windowLen
		if i == n-1 {
			span = elapsed - time.Duration(n-1)*windowLen
		}
		rate = append(rate, float64(len(l))/span.Seconds())
		var busy float64
		for _, us := range l {
			busy += us
		}
		busyRate = append(busyRate, float64(len(l))/max(busy, 1)*1e6)
		p50 = append(p50, quantile(l, 0.5))
		p99 = append(p99, quantile(l, 0.99))
	}
	fmt.Fprintf(os.Stderr, "  window rates (1/s): %.0f\n", rate)
	return windows{rate: median(rate), busyRate: median(busyRate), p50: median(p50), p99: median(p99), n: n}
}

// checkExact checks a /form response against a reference answer.
func checkExact(code int, body []byte, want expect) string {
	if code != 200 {
		return fmt.Sprintf("status %d", code)
	}
	var rp reply
	if err := json.Unmarshal(body, &rp); err != nil {
		return fmt.Sprintf("undecodable body: %v", err)
	}
	return want.check(rp.Found, rp.Members, rp.Cost)
}

func secondsOf(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// closedLoop runs `clients` keep-alive connections, each sending its
// next zipf-chosen /form as soon as the previous reply arrived, for d.
// It returns the successful requests and the elapsed time.
func closedLoop(addr string, seed int64, targets []string, canon [][]byte, d time.Duration, t *tally) ([]sample, time.Duration) {
	var wg sync.WaitGroup
	lats := make([][]sample, clients)
	start := time.Now()
	end := start.Add(d)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			z := hotZipf(seed*clients+int64(ci), len(targets))
			lat := make([]sample, 0, 1<<18)
			var c *conn
			for {
				if c == nil {
					var err error
					if c, err = dial(addr); err != nil {
						t.fail(err.Error())
						time.Sleep(10 * time.Millisecond)
						if time.Now().After(end) {
							break
						}
						continue
					}
				}
				i := int(z.Uint64())
				t0 := time.Now()
				if t0.After(end) {
					break
				}
				code, body, err := c.do("GET", targets[i])
				took := time.Since(t0)
				switch {
				case err != nil:
					t.fail(err.Error())
					c.close()
					c = nil
				case code != 200:
					t.fail(fmt.Sprintf("/form status %d", code))
				case !bytes.Equal(body, canon[i]):
					t.wrongAnswer(fmt.Sprintf("%s answered %s, want %s", targets[i], body, canon[i]))
				default:
					t.ok()
					lat = append(lat, sample{at: t0.Sub(start) + took, lat: usOf(took)})
				}
			}
			if c != nil {
				c.close()
			}
			lats[ci] = lat
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, l := range lats {
		all = append(all, l...)
	}
	return all, elapsed
}

// record is one open-loop request's outcome; times run from the
// schedule's start.
type record struct {
	dispatched, sent, done time.Duration
	code                   int
	failed                 bool
	epoch                  uint64 // opMutate: the epoch the flip produced
}

// openLoop sends ops at their due times over `clients` keep-alive
// connections. A dispatcher wakes on a coarse tick and hands every op
// that has come due to the senders, so a sleep that overshoots delays
// the next batch instead of shifting the whole schedule; its own
// lateness per op is dispatched-due. Waiting for a free connection
// (sent-dispatched) is client-side queueing, which the latency from
// the due time includes. check runs on the sender goroutine.
func openLoop(addr string, ops []op, check func(i int, code int, body []byte, rec *record)) ([]record, time.Duration) {
	const tick = time.Millisecond
	recs := make([]record, len(ops))
	queue := make(chan int, len(ops)) // sized to every send: the dispatcher never blocks
	start := time.Now()
	go func() {
		i := 0
		for i < len(ops) {
			now := time.Since(start)
			for i < len(ops) && ops[i].due <= now {
				recs[i].dispatched = now
				queue <- i
				i++
			}
			if i < len(ops) {
				time.Sleep(tick)
			}
		}
		close(queue)
	}()
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *conn
			for i := range queue {
				rec := &recs[i]
				rec.sent = time.Since(start)
				if c == nil {
					var err error
					if c, err = dial(addr); err != nil {
						rec.failed = true
						rec.done = time.Since(start)
						check(i, 0, []byte(err.Error()), rec)
						continue
					}
				}
				code, body, err := c.do(ops[i].method, ops[i].target)
				rec.done = time.Since(start)
				rec.code = code
				if err != nil {
					c.close()
					c = nil
					rec.failed = true
					check(i, 0, []byte(err.Error()), rec)
					continue
				}
				check(i, code, body, rec)
			}
			if c != nil {
				c.close()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// lagP99Ms is the dispatcher's lateness p99 in ms.
func lagP99Ms(ops []op, recs []record) float64 {
	lag := make([]float64, len(ops))
	for i := range ops {
		lag[i] = float64(recs[i].dispatched-ops[i].due) / float64(time.Millisecond)
	}
	return quantile(lag, 0.99)
}

// checkOp is the per-response check shared by the open-loop runs and
// the traced replay: status, then the answer's invariants. It returns
// whether the operation succeeded.
func checkOp(t *tally, in *inputs, pool []skills.Task, o *op, code int, body []byte, rec *record) bool {
	if rec != nil && rec.failed {
		t.fail(fmt.Sprintf("%s: %s", o.target, body))
		return false
	}
	if code != 200 {
		t.fail(fmt.Sprintf("%s: status %d: %s", o.target, code, bytes.TrimSpace(body)))
		if rec != nil {
			rec.failed = true
		}
		return false
	}
	var why string
	switch o.kind {
	case opForm:
		why = checkFormBody(body, in.assign, pool[o.task], o.include, o.exclude)
	case opTopK:
		why = checkTopKBody(body, in.assign, pool[o.task], topkK)
	case opMutate:
		var mr struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(body, &mr); err != nil || mr.Epoch == 0 {
			why = fmt.Sprintf("bad /mutate reply %s", body)
		} else if rec != nil {
			rec.epoch = mr.Epoch
		}
	}
	if why != "" {
		t.wrongAnswer(fmt.Sprintf("%s: %s", o.target, why))
		if rec != nil {
			rec.failed = true
		}
		return false
	}
	t.ok()
	return true
}

// mixedLoad is serve-mixed: the open-loop schedule, then probes with no
// traffic compared against an oracle that applied the same successful
// flips in the same order.
func (r *runner) mixedLoad(addr string, in *inputs, pool []skills.Task, rng *rand.Rand) error {
	ops := mixedOps(rng, in, pool, secondsOf(r.cfg.seconds))
	recs, wall := openLoop(addr, ops, func(i, code int, body []byte, rec *record) {
		checkOp(r.tally, in, pool, &ops[i], code, body, rec)
	})
	lag := lagP99Ms(ops, recs)
	if lag > lagBoundMs {
		r.tally.invalid(fmt.Sprintf("dispatcher lateness p99 %.1f ms > %.0f ms", lag, lagBoundMs))
	}
	var form []sample
	var topk, mut []float64
	for i, o := range ops {
		rec := recs[i]
		if rec.failed {
			continue
		}
		switch o.kind {
		case opForm:
			form = append(form, sample{at: o.due, lat: usOf(rec.done - o.due)})
		case opTopK:
			topk = append(topk, usOf(rec.done-o.due))
		case opMutate:
			mut = append(mut, usOf(rec.done-rec.sent))
		}
	}
	raw := readAfterWrite(ops, recs)
	w := windowStats(form, secondsOf(r.cfg.seconds))
	r.set("form_p50_us", w.p50, "us")
	r.set("form_p99_us", w.p99, "us")
	// The offered rate fixes every window's count, so the completion
	// rate is taken over the whole run, drain included: it falls only
	// when the daemon cannot keep up.
	r.set("forms_per_s", float64(len(form))/wall.Seconds(), "1/s")
	fmt.Fprintf(os.Stderr, "  serve-mixed: %d ops in %.2fs; /form n=%d; /formtopk n=%d p99 %.0f us; /mutate n=%d p99 %.0f us; read-after-write n=%d p50 %.2f ms; lag p99 %.2f ms\n",
		len(ops), wall.Seconds(), len(form), len(topk), quantile(topk, 0.99), len(mut), quantile(mut, 0.99),
		len(raw), quantile(raw, 0.5), lag)
	return r.probe(addr, in, pool, ops, recs)
}

// readAfterWrite returns, for each successful mutation, the latency
// (ms, from its due time) of the first read sent after the mutation's
// reply arrived.
func readAfterWrite(ops []op, recs []record) []float64 {
	var out []float64
	for i, o := range ops {
		if o.kind != opMutate || recs[i].failed {
			continue
		}
		first := -1
		for j, p := range ops {
			if p.kind == opMutate || recs[j].failed || recs[j].sent < recs[i].done {
				continue
			}
			if first < 0 || recs[j].sent < recs[first].sent {
				first = j
			}
		}
		if first >= 0 {
			out = append(out, float64(recs[first].done-ops[first].due)/float64(time.Millisecond))
		}
	}
	return out
}

// probe re-asks probeTasks tasks with no traffic and compares each
// answer with an oracle over the daemon's final graph: the parsed input
// with every successful flip applied in epoch order.
func (r *runner) probe(addr string, in *inputs, pool []skills.Task, ops []op, recs []record) error {
	type applied struct {
		epoch uint64
		mut   sgraph.Mutation
	}
	var muts []applied
	for i, o := range ops {
		if o.kind == opMutate && !recs[i].failed {
			muts = append(muts, applied{recs[i].epoch, o.mut})
		}
	}
	slices.SortFunc(muts, func(a, b applied) int { return int(a.epoch) - int(b.epoch) })
	dyn := sgraph.NewDynamic(in.g)
	for k, m := range muts {
		if m.epoch != uint64(k+1) {
			r.tally.wrongAnswer(fmt.Sprintf("mutation epochs are not 1..%d: %d at position %d", len(muts), m.epoch, k))
			break
		}
		if _, _, err := dyn.Apply(m.mut); err != nil {
			return err
		}
	}
	o, err := newOracle(dyn.Graph(), in.assign, in.g.NumNodes()+1)
	if err != nil {
		return err
	}
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	for _, t := range pool[:min(probeTasks, len(pool))] {
		want, err := o.answer(t)
		if err != nil {
			return err
		}
		code, body, err := c.do("GET", formTarget(in.assign.Universe(), t, nil, nil))
		if err != nil {
			return err
		}
		if why := checkExact(code, body, want); why != "" {
			r.tally.wrongAnswer(fmt.Sprintf("probe %v after %d flips: %s", t, len(muts), why))
		} else {
			r.tally.ok()
		}
	}
	return nil
}
