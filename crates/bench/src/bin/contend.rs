//! E9 + E12: wall-clock contention benchmark over the native algorithms.
//!
//! For each row this spawns T ∈ {1, 2, 4, k, 2k, oversubscribed}
//! threads doing closed-loop acquire→CS→release cycles and reports
//! throughput, sampled latency percentiles, and per-thread fairness.
//! Every row is built over one run-wide universe `N = max(16, largest
//! T)`, so `T = 1` is E9's uncontended row at `N = 16` and the chain,
//! tree and fast-path rows stay distinct algorithms at every `T`.
//! Always writes a JSON document (default `BENCH_contend.json`) via the
//! shared report writer.
//!
//! ```text
//! contend [--smoke] [--json <path>] [--duration-ms <n>]
//!         [--threads <a,b,c>] [--algo <name,...>]
//!         [--baseline <seqcst.json>] [--backoff]
//! ```
//!
//! * `--smoke` — CI mode: 2 threads, short window, and a self-check
//!   that every `k > 1` row has `n > 2k`.
//! * `--baseline` — a document produced by the `--features seqcst`
//!   build of this binary; per-algorithm throughput deltas between the
//!   SeqCst and relaxed-ordering builds are recorded under
//!   `relaxation`.
//! * `--backoff` — additionally sweep `BackoffCfg` thresholds on three
//!   representative algorithms (justifies the library defaults).
//!
//! Methodology caveats live in `EXPERIMENTS.md` E12.

use std::time::Duration;

use kex_bench::contend::{run_contended, RunConfig, RunStats};
use kex_bench::JsonSink;
use kex_core::native::{
    CcChainKex, DsmChainKex, FastPathKex, GracefulKex, KAssignment, McsLock, QueueKex, RawKex,
    Resilient, SemaphoreKex, TreeKex, YangAndersonLock,
};
use kex_obs::json::{self, Json};
use kex_util::{set_global_backoff, BackoffCfg};
use kex_waitfree::{FetchAddCounter, SlotCounter, Snapshot, WfQueue};

/// The resiliency/admission knob for the k > 1 algorithms.
const K: usize = 4;

/// Smallest run-wide universe: E9's uncontended rows are at `N = 16`,
/// and `16 > 2K` keeps the tree and fast path from collapsing into one
/// `(N, K)` chain block.
const MIN_UNIVERSE: usize = 16;

/// One benchmarked row: name, its admission bound `k` (`None` for the
/// bare fetch-and-add baseline, which admits everyone), and an
/// operation factory over the universe `n` (a fresh instance per
/// measured window, so no state leaks across runs).
struct Algo {
    name: &'static str,
    k: Option<usize>,
    make: fn(n: usize) -> Box<dyn Fn(usize) + Sync>,
}

/// The run-wide universe for a thread grid: pids are thread indices,
/// so `N` covers the largest `T`.
fn universe(threads: &[usize]) -> usize {
    threads.iter().copied().max().unwrap_or(1).max(MIN_UNIVERSE)
}

fn kex_op<L: RawKex + 'static>(lock: L) -> Box<dyn Fn(usize) + Sync> {
    Box::new(move |p| {
        lock.acquire(p);
        std::hint::black_box(p);
        lock.release(p);
    })
}

fn algorithms() -> Vec<Algo> {
    vec![
        Algo {
            name: "fig2",
            k: Some(K),
            make: |n| kex_op(CcChainKex::new(n, K)),
        },
        Algo {
            name: "fig6",
            k: Some(K),
            make: |n| kex_op(DsmChainKex::new(n, K)),
        },
        Algo {
            name: "tree",
            k: Some(K),
            make: |n| kex_op(TreeKex::cc(n, K)),
        },
        Algo {
            name: "fast_path",
            k: Some(K),
            make: |n| kex_op(FastPathKex::new(n, K)),
        },
        Algo {
            name: "fast_path_dsm",
            k: Some(K),
            make: |n| kex_op(FastPathKex::new_dsm(n, K)),
        },
        Algo {
            name: "graceful",
            k: Some(K),
            make: |n| kex_op(GracefulKex::new(n, K)),
        },
        Algo {
            name: "fig1",
            k: Some(K),
            make: |n| kex_op(QueueKex::new(n, K)),
        },
        Algo {
            name: "semaphore",
            k: Some(K),
            make: |n| kex_op(SemaphoreKex::new(n, K)),
        },
        // §5's k = 1 comparison: the reference spin locks beside the
        // paper's (N, 1) instances.
        Algo {
            name: "mcs",
            k: Some(1),
            make: |n| kex_op(McsLock::new(n)),
        },
        Algo {
            name: "yang_anderson",
            k: Some(1),
            make: |n| kex_op(YangAndersonLock::new(n)),
        },
        Algo {
            name: "fig2_k1",
            k: Some(1),
            make: |n| kex_op(CcChainKex::new(n, 1)),
        },
        Algo {
            name: "tree_k1",
            k: Some(1),
            make: |n| kex_op(TreeKex::cc(n, 1)),
        },
        Algo {
            name: "fast_path_k1",
            k: Some(1),
            make: |n| kex_op(FastPathKex::new(n, 1)),
        },
        Algo {
            name: "assignment",
            k: Some(K),
            make: |n| {
                let pool = KAssignment::new(n, K);
                Box::new(move |p| {
                    let guard = pool.enter(p);
                    std::hint::black_box(guard.name());
                })
            },
        },
        // The payload cost spectrum (DESIGN.md §7): one hot word with no
        // admission, per-name slots behind the wrapper, a k-register
        // snapshot, and the universal construction's consensus log.
        Algo {
            name: "fetch_add_counter",
            k: None,
            make: |_| {
                let counter = FetchAddCounter::new();
                Box::new(move |_| {
                    std::hint::black_box(counter.add(1));
                })
            },
        },
        Algo {
            name: "resilient_counter",
            k: Some(K),
            make: |n| {
                let obj = Resilient::new(n, K, SlotCounter::new(K));
                Box::new(move |p| {
                    obj.with(p, |counter, name| counter.add(name, 1));
                })
            },
        },
        Algo {
            name: "resilient_snapshot",
            k: Some(K),
            make: |n| {
                let obj = Resilient::new(n, K, Snapshot::<u64>::new(K));
                Box::new(move |p| {
                    obj.with(p, |snap, name| {
                        snap.update(name, p as u64);
                        std::hint::black_box(snap.scan());
                    });
                })
            },
        },
        Algo {
            name: "resilient_queue",
            k: Some(K),
            make: |n| {
                let obj = Resilient::new(n, K, WfQueue::<u64>::new(K));
                Box::new(move |p| {
                    obj.with(p, |queue, name| {
                        queue.enqueue(name, p as u64);
                        std::hint::black_box(queue.dequeue(name));
                    });
                })
            },
        },
    ]
}

#[derive(Debug)]
struct Options {
    smoke: bool,
    backoff_sweep: bool,
    duration: Duration,
    threads: Vec<usize>,
    algos: Option<Vec<String>>,
    baseline: Option<std::path::PathBuf>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        backoff_sweep: false,
        duration: Duration::from_millis(300),
        // 1, 2, 4, k, 2k, oversubscribed (the host is allowed to have
        // fewer cores than 16 — oversubscription is part of the design).
        threads: vec![1, 2, 4, K, 2 * K, 16],
        algos: None,
        baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--backoff" => opts.backoff_sweep = true,
            "--json" => {
                args.next(); // consumed by JsonSink::from_args
            }
            "--duration-ms" => {
                let ms = args
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| usage("--duration-ms needs an integer"));
                opts.duration = Duration::from_millis(ms);
            }
            "--threads" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a list"));
                opts.threads = list
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&t| t >= 1)
                            .unwrap_or_else(|| usage("--threads entries must be positive"))
                    })
                    .collect();
            }
            "--algo" => {
                let list = args.next().unwrap_or_else(|| usage("--algo needs a list"));
                opts.algos = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--baseline" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| usage("--baseline needs a path"));
                opts.baseline = Some(path.into());
            }
            other if other.starts_with("--json=") => {}
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if opts.smoke {
        opts.threads = vec![2];
        opts.duration = Duration::from_millis(60);
    }
    opts.threads.sort_unstable();
    opts.threads.dedup();
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("contend: {msg}");
    eprintln!(
        "usage: contend [--smoke] [--json <path>] [--duration-ms <n>] \
         [--threads <a,b,c>] [--algo <names>] [--baseline <json>] [--backoff]"
    );
    std::process::exit(2);
}

fn ordering_build() -> &'static str {
    if cfg!(feature = "seqcst") {
        "seqcst"
    } else {
        "relaxed"
    }
}

fn stats_json(s: &RunStats) -> Json {
    Json::obj(vec![
        ("threads", s.threads.into()),
        ("total_ops", s.total_ops.into()),
        ("elapsed_ms", (s.elapsed.as_secs_f64() * 1e3).into()),
        ("ops_per_sec", s.ops_per_sec().into()),
        ("p50_ns", s.p50_ns.into()),
        ("p90_ns", s.p90_ns.into()),
        ("p99_ns", s.p99_ns.into()),
        ("p999_ns", s.p999_ns.into()),
        ("latency_samples", s.samples.into()),
        ("min_thread_ops", s.min_thread_ops.into()),
        ("max_thread_ops", s.max_thread_ops.into()),
    ])
}

/// The median-throughput run of `windows` measured windows of `case`
/// at `threads` threads, each window on a fresh instance over `n`.
fn median_run(case: &Algo, n: usize, threads: usize, cfg: &RunConfig, windows: usize) -> RunStats {
    let mut samples: Vec<_> = (0..windows)
        .map(|_| run_contended(threads, cfg, (case.make)(n)))
        .collect();
    samples.sort_by(|a, z| a.ops_per_sec().total_cmp(&z.ops_per_sec()));
    samples[samples.len() / 2]
}

/// Pull `algorithms[name].runs[threads].ops_per_sec` out of a baseline
/// document produced by the `--features seqcst` build.
fn baseline_throughput(doc: &Json, algo: &str, threads: usize) -> Option<f64> {
    doc.get("algorithms")?
        .as_arr()?
        .iter()
        .find(|a| a.get("name").and_then(Json::as_str) == Some(algo))?
        .get("runs")?
        .as_arr()?
        .iter()
        .find(|r| r.get("threads").and_then(Json::as_u64) == Some(threads as u64))?
        .get("ops_per_sec")?
        .as_f64()
}

fn main() {
    let opts = parse_args();
    let mut sink = JsonSink::from_args_or_default("BENCH_contend.json");
    let cfg = RunConfig::with_duration(opts.duration);
    let n = universe(&opts.threads);
    let cases: Vec<Algo> = algorithms()
        .into_iter()
        .filter(|a| {
            opts.algos
                .as_ref()
                .is_none_or(|names| names.iter().any(|n| n == a.name))
        })
        .collect();
    if cases.is_empty() {
        usage("--algo matched no algorithm");
    }

    let baseline_doc = opts.baseline.as_ref().map(|path| {
        let doc = json::read_file(path).unwrap_or_else(|e| {
            eprintln!("contend: {e}");
            std::process::exit(2);
        });
        let build = doc.get("ordering_build").and_then(Json::as_str);
        if build != Some("seqcst") {
            eprintln!(
                "contend: --baseline document has ordering_build {build:?}, expected \"seqcst\""
            );
            std::process::exit(2);
        }
        let base_n = doc.get("n").and_then(Json::as_u64);
        if base_n != Some(n as u64) {
            eprintln!("contend: --baseline document has n {base_n:?}, this run has n = {n}");
            std::process::exit(2);
        }
        doc
    });

    println!(
        "contend: build={} n={n} threads={:?} window={:?} cpus={}",
        ordering_build(),
        opts.threads,
        opts.duration,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let mut failures = 0u32;
    // A `k > 1` row at `n <= 2k` would measure one `(n, k)` chain block,
    // not the tree or fast path it is named after.
    if opts.smoke {
        for case in cases
            .iter()
            .filter(|c| c.k.is_some_and(|k| k > 1 && n <= 2 * k))
        {
            eprintln!("  FAIL: {} runs at n = {n} <= 2k", case.name);
            failures += 1;
        }
    }
    let mut algo_docs = Vec::new();
    let mut deltas: Vec<(String, usize, f64, f64, f64)> = Vec::new();
    // Median of several measured windows per cell: on a small host the
    // scheduler adds several percent of run-to-run noise, which single
    // windows cannot separate from the ordering deltas we record.
    let windows: usize = if opts.smoke { 1 } else { 3 };
    for case in &cases {
        let mut runs = Vec::new();
        for &threads in &opts.threads {
            let stats = median_run(case, n, threads, &cfg, windows);
            println!(
                "  {:>18} T={:<2} {:>12.0} ops/s  p50={:>7} p90={:>7} p99={:>7} p999={:>8} ns  ops/thread={}..{}",
                case.name,
                threads,
                stats.ops_per_sec(),
                stats.p50_ns,
                stats.p90_ns,
                stats.p99_ns,
                stats.p999_ns,
                stats.min_thread_ops,
                stats.max_thread_ops,
            );
            if stats.total_ops == 0 || stats.samples == 0 {
                eprintln!("  FAIL: {} T={threads} made no progress", case.name);
                failures += 1;
            }
            if let Some(doc) = &baseline_doc {
                if threads > 1 {
                    if let Some(base) = baseline_throughput(doc, case.name, threads) {
                        let relaxed = stats.ops_per_sec();
                        let pct = (relaxed - base) / base * 100.0;
                        deltas.push((case.name.to_string(), threads, base, relaxed, pct));
                    }
                }
            }
            runs.push(stats_json(&stats));
        }
        algo_docs.push(Json::obj(vec![
            ("name", case.name.into()),
            ("n", n.into()),
            ("k", case.k.map_or(Json::Null, Json::from)),
            ("runs", Json::arr(runs)),
        ]));
    }

    let mut backoff_docs = Vec::new();
    if opts.backoff_sweep {
        println!("\n  backoff sweep (T=8):");
        let grid = [(0u32, 4u32), (2, 6), (4, 8), (6, 10), (8, 12), (10, 14)];
        for &(spin_limit, yield_limit) in &grid {
            set_global_backoff(BackoffCfg {
                spin_limit,
                yield_limit,
            });
            for name in ["fig2", "fast_path", "mcs"] {
                let case = algorithms().into_iter().find(|a| a.name == name).unwrap();
                let threads = if opts.smoke { 2 } else { 8 };
                let stats = median_run(&case, n, threads, &cfg, windows);
                println!(
                    "    spin={spin_limit:<2} yield={yield_limit:<2} {name:>9}: {:>12.0} ops/s",
                    stats.ops_per_sec()
                );
                backoff_docs.push(Json::obj(vec![
                    ("spin_limit", u64::from(spin_limit).into()),
                    ("yield_limit", u64::from(yield_limit).into()),
                    ("algo", name.into()),
                    ("threads", threads.into()),
                    ("ops_per_sec", stats.ops_per_sec().into()),
                ]));
            }
        }
        set_global_backoff(BackoffCfg::DEFAULT);
    }

    sink.put("schema", "kex-bench/contend/v2".into());
    sink.put("ordering_build", ordering_build().into());
    sink.put(
        "cpus",
        std::thread::available_parallelism()
            .map_or(0usize, |n| n.get())
            .into(),
    );
    sink.put("k", K.into());
    sink.put("n", n.into());
    sink.put("duration_ms", (opts.duration.as_millis() as u64).into());
    sink.put("warmup_ms", (cfg.warmup.as_millis() as u64).into());
    sink.put("latency_sample_every", cfg.sample_every.into());
    sink.put("windows_per_cell", windows.into());
    sink.put(
        "thread_counts",
        Json::arr(opts.threads.iter().map(|&t| t.into()).collect()),
    );
    sink.put("algorithms", Json::arr(algo_docs));
    if !backoff_docs.is_empty() {
        sink.put("backoff_sweep", Json::arr(backoff_docs));
    }

    if let Some(doc) = &baseline_doc {
        sink.put(
            "baseline",
            Json::obj(vec![
                (
                    "source",
                    opts.baseline.as_ref().unwrap().display().to_string().into(),
                ),
                ("ordering_build", "seqcst".into()),
                (
                    "duration_ms",
                    doc.get("duration_ms").cloned().unwrap_or(Json::Null),
                ),
            ]),
        );
        deltas.sort_by(|a, z| z.4.total_cmp(&a.4));
        let per_algo: Vec<Json> = deltas
            .iter()
            .map(|(name, threads, base, relaxed, pct)| {
                Json::obj(vec![
                    ("algo", name.as_str().into()),
                    ("threads", (*threads).into()),
                    ("seqcst_ops_per_sec", (*base).into()),
                    ("relaxed_ops_per_sec", (*relaxed).into()),
                    ("improvement_pct", (*pct).into()),
                ])
            })
            .collect();
        if let Some((name, threads, base, relaxed, pct)) = deltas.first() {
            println!(
                "\n  best relaxation delta: {name} T={threads}: {base:.0} -> {relaxed:.0} ops/s ({pct:+.1}%)"
            );
            sink.put(
                "relaxation",
                Json::obj(vec![
                    (
                        "best",
                        Json::obj(vec![
                            ("algo", name.as_str().into()),
                            ("threads", (*threads).into()),
                            ("seqcst_ops_per_sec", (*base).into()),
                            ("relaxed_ops_per_sec", (*relaxed).into()),
                            ("improvement_pct", (*pct).into()),
                        ]),
                    ),
                    ("per_run", Json::arr(per_algo)),
                ]),
            );
        }
    }

    sink.finish();

    if failures > 0 {
        eprintln!("contend: {failures} check(s) failed");
        std::process::exit(1);
    }
    if opts.smoke {
        println!("SMOKE OK: every algorithm made progress at T=2 with n = {n}");
    }
}
