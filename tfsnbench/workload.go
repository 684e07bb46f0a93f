package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliflags"
	"repro/internal/compat"
	"repro/internal/datasets"
	"repro/internal/sgraph"
	"repro/internal/skills"
	"repro/internal/team"
)

// workload is one named traffic shape. Engine is the configuration
// both tfsnd (as flags) and the in-process runs (through
// cliflags.Engine.Build) use, so the traced run hosts the same engine
// the daemon builds.
type workload struct {
	name      string
	scale     float64 // Epinions stand-in scale
	engine    cliflags.Engine
	mutations bool
	serve     bool // driven through tfsnd; false = in-process library
	// procs is GOMAXPROCS for the process that holds the engine (tfsnd,
	// or the traced run); 0 leaves Go's default of every CPU.
	procs int
}

// Sizes fixed by the workload definitions (doc.go says why).
const (
	taskSkills   = 5
	hotTasks     = 64   // serve-hot: fixed popular tasks, all cacheable
	poolTasks    = 4096 // serve-mixed and batch: mostly distinct tasks
	planCache    = 256  // tfsnd's default; ≥ hotTasks
	clients      = 2    // connections / solver workers (nproc of the reference host)
	mixedRate    = 500  // serve-mixed offered requests per second
	mixedFlips   = 2    // serve-mixed POST /mutate per second
	topkEvery    = 7    // serve-mixed: one read in 7 is a diverse /formtopk
	batchChunk   = 1024 // tasks per FormBatch call (doc.go says why)
	setupRepeats = 7    // set-ups per run; setup_s is their median
	probeTasks   = 32   // serve-mixed post-run probes
	lagBoundMs   = 25.0 // a run whose dispatcher lateness p99 exceeds this is invalid
	topkK        = 3
	topkLambda   = 0.5
)

var workloadList = []workload{
	{name: "serve-hot", scale: 0.04, engine: cliflags.Engine{Name: "matrix", MmapSpill: true}, serve: true},
	{name: "serve-mixed", scale: 0.04, engine: cliflags.Engine{Name: "sharded", ShardRows: 64, MmapSpill: true}, mutations: true, serve: true, procs: 1},
	{name: "batch", scale: 0.1, engine: cliflags.Engine{Name: "matrix", MmapSpill: true}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadList {
		names = append(names, w.name)
	}
	return names
}

// daemonArgs are the tfsnd flags for w over the saved inputs.
func (w workload) daemonArgs(in *inputs) []string {
	args := []string{"-edges", in.edgesPath, "-skills", in.skillsPath, "-relation", "SPO",
		"-engine", w.engine.Name, "-plan-cache", fmt.Sprint(planCache), "-addr", "127.0.0.1:0"}
	if w.engine.ShardRows > 0 {
		args = append(args, "-shard-rows", fmt.Sprint(w.engine.ShardRows))
	}
	if w.mutations {
		args = append(args, "-mutations")
	}
	return args
}

// lcmd is the policy pair every workload solves with (the paper's
// LeastCompatibleFirst + MinDistance, tfsnd's default).
var lcmd = team.Options{Skill: team.LeastCompatibleFirst, User: team.MinDistance}

// runner holds one run's state.
type runner struct {
	cfg     config
	w       workload
	dir     string
	tally   *tally
	metrics map[string]metric
	env     map[string]string
}

func (r *runner) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runner) endToEnd() error {
	if r.w.serve {
		return r.serveRun()
	}
	return r.batchRun()
}

// inputs are a workload's generated files and the benchmark's own parse
// of them. Node IDs come from that parse, which is the parse tfsnd
// makes of the same files: sgraph.ReadEdgeList remaps IDs, so IDs from
// the generator would name other edges.
type inputs struct {
	edgesPath, skillsPath string
	g                     *sgraph.Graph
	assign                *skills.Assignment
}

// makeInputs generates the Epinions stand-in for seed and scale, saves
// it under dir, and parses it back.
func makeInputs(dir string, seed int64, scale float64) (*inputs, error) {
	d, err := datasets.EpinionsSim(seed, scale)
	if err != nil {
		return nil, err
	}
	if err := d.Save(dir); err != nil {
		return nil, err
	}
	in := &inputs{
		edgesPath:  filepath.Join(dir, d.Name+".edges"),
		skillsPath: filepath.Join(dir, d.Name+".skills"),
	}
	if err := in.parse(nil); err != nil {
		return nil, err
	}
	return in, nil
}

// parse reads the saved files, with a span around each reader when tr
// is non-nil.
func (in *inputs) parse(tr *tracer) error {
	ef, err := os.Open(in.edgesPath)
	if err != nil {
		return err
	}
	defer ef.Close()
	sp := tr.begin("sgraph.ReadEdgeList", -1, 0)
	g, _, err := sgraph.ReadEdgeList(ef)
	tr.end(sp)
	if err != nil {
		return err
	}
	sf, err := os.Open(in.skillsPath)
	if err != nil {
		return err
	}
	defer sf.Close()
	sp = tr.begin("skills.ReadTSV", -1, 0)
	assign, err := skills.ReadTSV(sf, g.NumNodes())
	tr.end(sp)
	if err != nil {
		return err
	}
	in.g, in.assign = g, assign
	return nil
}

// build constructs w's engine over g exactly as tfsnd does.
func (w workload) build(g *sgraph.Graph) (compat.Relation, error) {
	rel, _, err := w.engine.Build(compat.SPO, g, compat.Options{CacheCap: g.NumNodes() + 1})
	return rel, err
}

// randomTasks draws n distinct taskSkills-skill tasks (fewer when the
// skill universe cannot supply that many distinct ones).
func randomTasks(rng *rand.Rand, a *skills.Assignment, n int) ([]skills.Task, error) {
	seen := map[string]bool{}
	var out []skills.Task
	for tries := 0; len(out) < n && tries < 20*n; tries++ {
		t, err := skills.RandomTask(rng, a, taskSkills)
		if err != nil {
			return nil, err
		}
		key := fmt.Sprint(t)
		if !seen[key] {
			seen[key] = true
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tasks could be drawn")
	}
	return out, nil
}

// tally counts attempted and failed operations and keeps the first few
// problems. Wrong answers also clear correct.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	wrong             bool
	problems          []string
	nproblems         int
}

func newTally() *tally { return &tally{} }

// ok records a successful operation.
func (t *tally) ok() { t.attempted.Add(1) }

// fail records a failed operation (transport error, 409, 429, 5xx).
func (t *tally) fail(why string) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.note(why)
}

// wrongAnswer records an operation whose answer failed its check.
func (t *tally) wrongAnswer(why string) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	t.wrong = true
	t.mu.Unlock()
	t.note("wrong answer: " + why)
}

// invalid marks the whole run invalid without counting an operation.
func (t *tally) invalid(why string) {
	t.mu.Lock()
	t.wrong = true
	t.mu.Unlock()
	t.note("invalid run: " + why)
}

func (t *tally) note(why string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nproblems++
	if len(t.problems) < 10 {
		t.problems = append(t.problems, why)
	}
}

func (t *tally) problemList() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]string(nil), t.problems...)
	if t.nproblems > len(out) {
		out = append(out, fmt.Sprintf("... and %d more", t.nproblems-len(out)))
	}
	return out
}

func (t *tally) result(m map[string]metric) *result {
	t.mu.Lock()
	wrong := t.wrong
	t.mu.Unlock()
	att, failed := t.attempted.Load(), t.failed.Load()
	return &result{Correct: !wrong && att > 0, Attempted: att, Failed: failed, Metrics: m}
}

// okRatio is the share of attempted operations that succeeded.
func (t *tally) okRatio() float64 {
	att := t.attempted.Load()
	if att == 0 {
		return 0
	}
	return float64(att-t.failed.Load()) / float64(att)
}

// stampEnv records what the numbers depend on.
func stampEnv() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"goamd64":    "v1",
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"cpu":        cpuModel(),
		"commit":     commitID(),
		"kernels":    compat.KernelsVariant(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				env["goamd64"] = s.Value
			}
		}
	}
	return env
}

// readCPUTimes returns the aggregate cpu line of /proc/stat (user,
// nice, system, idle, iowait, irq, softirq, steal, ...), nil when it is
// unreadable.
func readCPUTimes() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	var out []int64
	for _, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealShare is the share of CPU time the hypervisor took between two
// readings: a run on a host whose other guests took much of it is slower
// for reasons outside the program.
func stealShare(a, b []int64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total int64
	for i := range min(len(a), len(b)) {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0
	}
	return float64(b[7]-a[7]) / float64(total)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID is the BENCH_COMMIT value run.sh sets: the git commit, or a
// digest of the Go sources in a checkout that is not a repository.
func commitID() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
