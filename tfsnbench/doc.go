// Command tfsnbench is the repository's benchmark of the tfsnd serving
// path and of batch formation. It generates a workload's inputs from a
// seed, drives the tfsnd daemon over loopback (or the library in
// process), checks every answer, and prints one JSON result line last.
// Run it from the repository root through run.sh, which builds tfsnd
// and this program first and keeps everything under .bench_build:
//
//	bash tfsnbench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
//	bash tfsnbench/run.sh --selftest
//
// # Workloads
//
// Every workload generates the Epinions stand-in
// (datasets.EpinionsSim(seed, scale)), saves it with Dataset.Save, and
// hands the program only those files. Every generator uses at most two
// connections or solver workers (the two CPUs of the reference host),
// and every task has five skills and is solved with LeastCompatibleFirst
// + MinDistance.
//
//   - serve-hot: tfsnd -engine matrix at scale 0.04 (1,154 users).
//     Closed loop over two keep-alive connections, each waiting for its
//     reply: only /form, zipfian popularity over 64 fixed tasks, plan
//     cache (256) larger than the pool. Nearly every request is a plan
//     hit and a warm solve of a few µs, so the request path (parse,
//     handler, encoding, net/http, loopback) takes almost all the time.
//     It shows request-path changes and predicts no change for engine or
//     mutation work.
//   - serve-mixed: tfsnd -engine sharded -shard-rows 64 -mutations on
//     the same graph. Open loop at 500 requests/s: /form over 4,096
//     tasks (mostly plan misses), about one /form in five with an
//     include and one in five with an exclude constraint, one read in
//     seven a diverse /formtopk?k=3&lambda=0.5, and two POST /mutate
//     edge flips per second. A flip dirties most shards, so the next read pays a shard
//     rebuild (signed-BFS rows plus plan recompiles): writes beside
//     reads, where a gain for one side that costs the other shows.
//     tfsnd runs with GOMAXPROCS=1, so its shard rebuilds and solves
//     take one CPU and the load generator the other. With Go's default
//     of both CPUs, the rebuild's worker pool and the load generator
//     contend for them, and /form p99, which is a rebuild stall, spread
//     by a quarter of its median across runs of the same code.
//   - batch: in process. Read the files at scale 0.1 (2,885 users),
//     build the packed matrix engine, and run team.Solver.FormBatch in
//     calls of 1,024 over 4,096 distinct tasks with no plan reuse. The
//     paper's experiment shape: the solver and the packed kernels
//     dominate, there is no HTTP, and the 8 MB distance matrix does not
//     fit in cache. A call of 1,024 tasks takes milliseconds, so a
//     hypervisor preemption of one of its two workers adds a fraction
//     of it. With calls of 64 (half a millisecond), 15% CPU steal on the
//     shared host quadrupled the call p99 and cut throughput by a third.
//
// # End-to-end metrics (--trace 0)
//
// Each run reports every metric on every workload:
//
//   - setup_s: median of seven set-ups. serve-*: tfsnd exec to the first
//     200 on /healthz. batch: reading the files and building the engine.
//     Generating the dataset is not counted.
//   - peak_rss_mb: VmHWM of the process holding the engine (tfsnd, or
//     the benchmark itself on batch).
//   - form_p50_us, form_p99_us: latency of one formation call. serve-hot
//     times /form from send; serve-mixed times /form from its due time,
//     so a stall also charges the requests queued behind it; batch times
//     one FormBatch call of 1,024 tasks.
//   - forms_per_s: teams formed per second: /form answers per second, or
//     on batch tasks per second of FormBatch time (the calls run back to
//     back, and timing them avoids counting whole calls in a window).
//   - ok_ratio: successful operations over attempted ones. A transport
//     error, a 409, a 429, a 5xx or a wrong answer is a failure; a
//     correct "found: false" is a success. The result line also carries
//     the raw attempted and failed counts.
//
// Timings are medians over one-second windows of the run: each
// window's rate, p50 and p99 are computed, and the median across
// windows is reported, so a burst of interference on a shared host
// moves one window rather than the result. serve-mixed also prints its
// /formtopk p99, /mutate p99, read-after-write p50 and dispatcher
// lateness on standard error.
//
// # Per-layer metrics (--trace 1)
//
// The traced run uses the same seed, hosts serve.New in process over the
// engine tfsnd builds (through cliflags.Engine, under the GOMAXPROCS
// tfsnd gets), and replays the same stream twice: through
// Handler().ServeHTTP, then through team.Solver and the engine's
// Mutate. It records a span (name, start, end, parent,
// request) around each call into a layer; spans stay in memory and are
// written to .bench_build/traces when the run ends, with a self-time
// table on standard error. The relation and solver are never wrapped:
// the solver type-switches on the concrete engine to reach its packed
// fast paths. Where the stream has no top-k or mutation, a few probe
// calls on the workload's engine fill those metrics.
//
// Which end-to-end metric each layer metric should move, and where:
//
//	layer metric                      moves                                 on
//	serve.handler_us.p50, .p99        form_p50_us, forms_per_s              serve-hot
//	serve.net_us.p50                  (share handler work cannot reach)     serve-*
//	serve.shed, serve.deadline_exceeded  ok_ratio                           serve-mixed
//	team.form_us.p50, .p99            form_p99_us                           serve-mixed
//	team.form_us.p50, .p99            forms_per_s                           batch
//	team.plan_compile_us.p50          form_p99_us, forms_per_s              serve-mixed, batch
//	team.plan_hit_ratio (of team.plan_lookups)  form_p50_us                 serve-mixed
//	team.topk_diverse_us.p50          form_p99_us (top-k shares the queue)  serve-mixed
//	team.batch_us_per_task            forms_per_s                           batch
//	compat.build_ms                   setup_s                               all
//	compat.mutate_us.p50              form_p99_us                           serve-mixed
//	compat.rebuild_ms.p50             form_p99_us                           serve-mixed
//	compat.dirty_shards_per_mutation  form_p99_us                           serve-mixed
//	compat.shard_rebuilds             form_p99_us                           serve-mixed
//	signedbfs.row_us.p50              form_p99_us; setup_s                  serve-mixed; batch
//	signedbfs.rows_per_mutation       form_p99_us                           serve-mixed
//	kernels.andcount_ns_per_row       forms_per_s (not serve-hot)           batch
//	kernels.argmin_ns_per_row         forms_per_s (not serve-hot)           batch
//	sgraph.read_edges_ms              setup_s                               all
//	skills.read_tsv_ms                setup_s                               all
//	sgraph.apply_us                   form_p99_us                           serve-mixed
//	loadgen.lag_p99_ms                validity: a run over 25 ms is invalid serve-mixed
//	trace.overhead_ratio              validity: traced / untraced time      all
//
// The kernel metrics come with their computed bytes moved per row
// (kernels.*_bytes_per_row): AndCount reads two rows of packed words;
// ArgminMaxU8's figure is an upper bound, every byte lane of the row
// plus its share of the holder and mask words.
//
// # Correctness
//
// serve-hot checks the first answer for every task against a lazy-engine
// team.Solver on the same files (same found, members and cost) and every
// later answer byte for byte against it. serve-mixed checks that every
// team covers its task and honours its include and exclude lists, then,
// with no traffic, re-asks 32 tasks and compares them with a lazy
// engine over the parsed graph with every successful flip applied in
// epoch order. Flip targets come from the benchmark's own parse of the
// file tfsnd reads, since sgraph.ReadEdgeList remaps node IDs. batch
// checks every first answer against a sequential solver on the same
// engine, the first 16 also against the lazy engine, and every later
// answer against the first. --selftest runs every workload at tiny
// scale, checks the printed metrics against BENCHMARK.json, and feeds
// the checkers corrupted answers, directly and through a live serve-hot
// loop against tfsnd.
package main
