package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// watchdog bounds one invocation; a run normally ends well within it.
const watchdog = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // 0 selects the workload's own scale (the self-test shrinks it)
	tfsnd    string  // daemon binary
	work     string  // directory for generated inputs and traces
}

func main() {
	var cfg config
	var selftest bool
	var secs int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-hot, serve-mixed or batch")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&secs, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.tfsnd, "tfsnd", "", "path to the tfsnd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for generated inputs and traces")
	flag.BoolVar(&selftest, "selftest", false, "run every workload at tiny scale and check the benchmark itself")
	flag.Parse()
	cfg.seconds = float64(secs)
	cfg.trace = trace == 1
	// A hung daemon must not hang the benchmark past its time limit.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "tfsnbench: still running after %v, giving up\n", watchdog)
		killDaemons()
		os.Exit(1)
	})
	if selftest {
		if err := runSelftest(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "tfsnbench selftest:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "tfsnbench selftest: ok")
		return
	}
	if secs < 1 || (trace != 0 && trace != 1) || cfg.tfsnd == "" {
		fmt.Fprintln(os.Stderr, "tfsnbench: need --seconds ≥ 1, --trace 0|1 and --tfsnd")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tfsnbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tfsnbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload run in its own directory under cfg.work,
// removed afterwards (traces are kept under cfg.work/traces).
func run(cfg config) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.scale > 0 {
		w.scale = cfg.scale
	}
	dir, err := os.MkdirTemp(ensureDir(cfg.work), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{cfg: cfg, w: w, dir: dir, tally: newTally(), env: stampEnv()}
	start := time.Now()
	cpu0 := readCPUTimes()
	if cfg.trace {
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	r.env["cpu_steal_share"] = fmt.Sprintf("%.3f", stealShare(cpu0, readCPUTimes()))
	stamp, err := json.Marshal(map[string]any{"env": r.env, "workload": w.name, "seed": cfg.seed, "trace": cfg.trace})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(stamp))
	res := r.tally.result(r.metrics)
	fmt.Fprintf(os.Stderr, "tfsnbench: %s seed %d trace %v: %d attempted, %d failed, correct %v, %.1fs wall\n",
		w.name, cfg.seed, cfg.trace, res.Attempted, res.Failed, res.Correct, time.Since(start).Seconds())
	for _, p := range r.tally.problemList() {
		fmt.Fprintln(os.Stderr, "  problem:", p)
	}
	return res, nil
}

// ensureDir creates dir (and parents) and returns its absolute path; a
// failure surfaces at the caller's following MkdirTemp.
func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	return abs
}
