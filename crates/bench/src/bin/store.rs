//! E13: Zipfian read/write mixes over the `kex-store` sharded
//! resilient-object service layer.
//!
//! For each shard count × thread count cell this builds a fresh
//! [`KvStore`], pre-populates every key, and drives a skewed
//! (Zipf(`s`)) closed-loop read/write mix through the blocking
//! `StoreRead`/`StoreWrite` surface, reporting throughput, sampled
//! latency percentiles, per-thread fairness, and per-shard key/op
//! imbalance. A crash-mix section then injects `k - 1` crash-in-CS
//! failures into *every* shard (the paper's failure model: each crash
//! permanently consumes one slot + name + journal lane) and shows the
//! store still serving, and finally kills the last slot of one shard to
//! show the non-blocking surface shedding exactly that shard's traffic.
//! Always writes a JSON document (default `BENCH_store.json`, schema
//! `kex-bench/store/v2`) via the shared report writer.
//!
//! ```text
//! store [--smoke] [--json <path>] [--duration-ms <n>]
//!       [--threads <a,b,c>] [--shards <a,b,c>] [--keys <n>]
//!       [--zipf-s <f>] [--read-pct <0-100>] [--k <n>]
//! ```
//!
//! * `--smoke` — CI mode: short windows over a reduced (but still
//!   ≥ 2 shard counts × ≥ 3 thread counts) grid, plus schema
//!   self-checks.
//!
//! Methodology caveats live in `EXPERIMENTS.md` E13.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use kex_bench::contend::{run_contended, RunConfig, RunStats};
use kex_bench::store_load::{ThreadRngs, ZipfSampler};
use kex_bench::JsonSink;
use kex_obs::json::Json;
use kex_store::{KvStore, StoreConfig, StoreRead, StoreWrite};

#[derive(Debug)]
struct Options {
    smoke: bool,
    duration: Duration,
    threads: Vec<usize>,
    shards: Vec<usize>,
    keys: usize,
    zipf_s: f64,
    read_pct: u64,
    k: usize,
}

/// Workload seed: fixed so documents regenerate comparably.
const SEED: u64 = 0x6B65_785F_6C6F_6164; // "kex_load"

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        duration: Duration::from_millis(200),
        threads: vec![2, 8, 32, 128],
        shards: vec![4, 16, 64],
        keys: 4096,
        zipf_s: 0.99,
        read_pct: 90,
        k: 4,
    };
    fn num(args: &mut impl Iterator<Item = String>, name: &str) -> u64 {
        args.next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or_else(|| usage(&format!("{name} needs an integer")))
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--json" => {
                args.next(); // consumed by JsonSink::from_args
            }
            "--duration-ms" => {
                opts.duration = Duration::from_millis(num(&mut args, "--duration-ms"));
            }
            "--keys" => opts.keys = num(&mut args, "--keys").max(1) as usize,
            "--read-pct" => {
                opts.read_pct = num(&mut args, "--read-pct");
                if opts.read_pct > 100 {
                    usage("--read-pct must be 0..=100");
                }
            }
            "--k" => opts.k = num(&mut args, "--k").max(1) as usize,
            "--zipf-s" => {
                opts.zipf_s = args
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--zipf-s needs a non-negative float"));
            }
            "--threads" => opts.threads = parse_list(args.next(), "--threads"),
            "--shards" => opts.shards = parse_list(args.next(), "--shards"),
            other if other.starts_with("--json=") => {}
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if opts.smoke {
        opts.threads = vec![2, 4, 8];
        opts.shards = vec![4, 16];
        opts.duration = Duration::from_millis(60);
        opts.keys = opts.keys.min(2048);
    }
    opts.threads.sort_unstable();
    opts.threads.dedup();
    opts.shards.sort_unstable();
    opts.shards.dedup();
    opts
}

fn parse_list(arg: Option<String>, name: &str) -> Vec<usize> {
    arg.unwrap_or_else(|| usage(&format!("{name} needs a list")))
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .ok()
                .filter(|&v| v >= 1)
                .unwrap_or_else(|| usage(&format!("{name} entries must be positive")))
        })
        .collect()
}

fn usage(msg: &str) -> ! {
    eprintln!("store: {msg}");
    eprintln!(
        "usage: store [--smoke] [--json <path>] [--duration-ms <n>] \
         [--threads <a,b,c>] [--shards <a,b,c>] [--keys <n>] \
         [--zipf-s <f>] [--read-pct <0-100>] [--k <n>]"
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

/// A fresh, fully populated store for one benchmark cell.
fn build_store(opts: &Options, shards: usize, n: usize) -> KvStore {
    let mut cfg = StoreConfig::new(shards, n, opts.k);
    cfg.seed = SEED;
    // Bulletproof capacity: any routing of `keys` fits any shard.
    cfg.capacity = opts.keys.next_power_of_two();
    cfg.journal_depth = 8;
    let store = KvStore::new(cfg);
    for key in 0..opts.keys as u64 {
        store.put(0, key, key & 0xFFFF).unwrap();
    }
    store
}

/// Per-shard key/op imbalance of a finished cell, from the store's own
/// monitoring surface (`ops_baseline` removes populate traffic).
fn imbalance_json(store: &KvStore, ops_baseline: &[u64]) -> Json {
    let stats = store.stats();
    let keys: Vec<u64> = stats.iter().map(|s| s.keys as u64).collect();
    let ops: Vec<u64> = stats
        .iter()
        .zip(ops_baseline)
        .map(|(s, base)| s.ops.saturating_sub(*base))
        .collect();
    let summarize = |v: &[u64]| -> (u64, u64, f64, f64) {
        let (min, max) = (*v.iter().min().unwrap(), *v.iter().max().unwrap());
        let mean = v.iter().sum::<u64>() as f64 / v.len() as f64;
        (
            min,
            max,
            mean,
            if mean > 0.0 { max as f64 / mean } else { 0.0 },
        )
    };
    let (kmin, kmax, kmean, kskew) = summarize(&keys);
    let (omin, omax, omean, oskew) = summarize(&ops);
    Json::obj(vec![
        ("keys_min", kmin.into()),
        ("keys_max", kmax.into()),
        ("keys_mean", kmean.into()),
        ("keys_max_over_mean", kskew.into()),
        ("ops_min", omin.into()),
        ("ops_max", omax.into()),
        ("ops_mean", omean.into()),
        ("ops_max_over_mean", oskew.into()),
    ])
}

fn main() {
    let opts = parse_args();
    let mut sink = JsonSink::from_args_or_default("BENCH_store.json");
    let cfg = RunConfig::with_duration(opts.duration);
    let zipf = ZipfSampler::new(opts.keys, opts.zipf_s);
    let windows: usize = if opts.smoke { 1 } else { 3 };
    let mut failures = 0u32;

    println!(
        "store: build={} shards={:?} threads={:?} keys={} zipf_s={} read_pct={}% k={} window={:?} cpus={}",
        ordering_build(),
        opts.shards,
        opts.threads,
        opts.keys,
        opts.zipf_s,
        opts.read_pct,
        opts.k,
        opts.duration,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    // ---- shard-count × thread-count grid --------------------------------
    let mut grid = Vec::new();
    for &shards in &opts.shards {
        for &threads in &opts.threads {
            let n = threads.max(opts.k + 1);
            let store = build_store(&opts, shards, n);
            let ops_baseline: Vec<u64> = store.stats().iter().map(|s| s.ops).collect();
            let rngs = ThreadRngs::new(threads, SEED ^ (shards as u64) << 32 ^ threads as u64);
            let op = |t: usize| {
                let r = rngs.next(t);
                let key = zipf.sample(rngs.uniform(t));
                if r % 100 < opts.read_pct {
                    std::hint::black_box(store.get(t, key));
                } else {
                    store.put(t, key, r & 0xFFFF).unwrap();
                }
            };
            let mut samples: Vec<_> = (0..windows)
                .map(|_| run_contended(threads, &cfg, op))
                .collect();
            samples.sort_by(|a, z| a.ops_per_sec().total_cmp(&z.ops_per_sec()));
            let stats = samples[samples.len() / 2];
            println!(
                "  S={:<3} T={:<3} {:>12.0} ops/s  p50={:>7} p99={:>8} p999={:>8} ns  ops/thread={}..{}",
                shards,
                threads,
                stats.ops_per_sec(),
                stats.p50_ns,
                stats.p99_ns,
                stats.p999_ns,
                stats.min_thread_ops,
                stats.max_thread_ops,
            );
            if stats.total_ops == 0 || stats.samples == 0 {
                eprintln!("  FAIL: S={shards} T={threads} made no progress");
                failures += 1;
            }
            grid.push(Json::obj(vec![
                ("shards", shards.into()),
                ("threads", threads.into()),
                ("n_per_shard", n.into()),
                ("run", stats_json(&stats)),
                ("imbalance", imbalance_json(&store, &ops_baseline)),
            ]));
        }
    }

    // ---- crash-mix: k-1 dead holders in *every* shard -------------------
    let shards = opts.shards[0];
    let threads = opts.threads[opts.threads.len() / 2];
    let crashed_per_shard = opts.k - 1;
    let crashers = crashed_per_shard * shards + 1; // +1 for the shed demo
    let n = threads.max(opts.k + 1) + crashers;
    let store = build_store(&opts, shards, n);
    let ops_baseline: Vec<u64> = store.stats().iter().map(|s| s.ops).collect();

    // Crash k-1 holders per shard, each a dedicated pid dying in its CS.
    let mut crash_pid = threads.max(opts.k + 1);
    for shard in 0..shards {
        let mut injected = 0;
        for key in 0..opts.keys as u64 {
            if injected == crashed_per_shard {
                break;
            }
            if store.shard_of(key) == shard {
                store.crash_in_cs(crash_pid, key, 0xDEAD);
                crash_pid += 1;
                injected += 1;
            }
        }
        assert_eq!(
            injected, crashed_per_shard,
            "shard {shard} owns too few keys"
        );
    }
    let in_flight: usize = store.stats().iter().map(|s| s.in_flight_lanes).sum();
    println!(
        "  crash-mix: S={shards} T={threads} k={} with {} dead holders ({} per shard), {} lanes in flight",
        opts.k,
        crashed_per_shard * shards,
        crashed_per_shard,
        in_flight,
    );

    // Availability: the blocking surface still completes through the one
    // live slot per shard.
    let rngs = ThreadRngs::new(threads, SEED ^ 0xC8A5);
    let avail_op = |t: usize| {
        let r = rngs.next(t);
        let key = zipf.sample(rngs.uniform(t));
        if r % 100 < opts.read_pct {
            std::hint::black_box(store.get(t, key));
        } else {
            store.put(t, key, r & 0xFFFF).unwrap();
        }
    };
    let avail = run_contended(threads, &cfg, avail_op);
    println!(
        "  crash-mix availability: {:>12.0} ops/s  p50={} p999={} ns",
        avail.ops_per_sec(),
        avail.p50_ns,
        avail.p999_ns,
    );
    if avail.total_ops == 0 {
        eprintln!("  FAIL: crash-mix run made no progress with k-1 dead per shard");
        failures += 1;
    }

    // Shed demo: consume shard 0's last slot, then drive the
    // non-blocking surface — shard 0's traffic sheds, the rest serves.
    let key0 = (0..opts.keys as u64)
        .find(|&k| store.shard_of(k) == 0)
        .unwrap();
    store.crash_in_cs(crash_pid, key0, 0xDEAD);
    let sheds_before: u64 = store.stats().iter().map(|s| s.sheds).sum();
    let shed_rngs = ThreadRngs::new(threads, SEED ^ 0x5EED);
    let served = AtomicU64::new(0);
    let shed_op = |t: usize| {
        let r = shed_rngs.next(t);
        let key = zipf.sample(shed_rngs.uniform(t));
        let outcome = if r % 100 < opts.read_pct {
            store.try_get(t, key).map(|_| ())
        } else {
            store.try_put(t, key, r & 0xFFFF).map(|_| ())
        };
        if outcome.is_some() {
            served.fetch_add(1, Ordering::Relaxed);
        }
    };
    let shed_stats = run_contended(threads, &cfg, shed_op);
    let sheds = store.stats().iter().map(|s| s.sheds).sum::<u64>() - sheds_before;
    println!(
        "  crash-mix shed (shard 0 fully dead): {:>12.0} attempts/s, {} shed",
        shed_stats.ops_per_sec(),
        sheds,
    );
    if shed_stats.total_ops == 0 || served.load(Ordering::Relaxed) == 0 {
        eprintln!("  FAIL: shed run served nothing");
        failures += 1;
    }
    if sheds == 0 {
        eprintln!("  FAIL: a fully dead shard shed no traffic");
        failures += 1;
    }

    let crash_mix = Json::obj(vec![
        ("shards", shards.into()),
        ("threads", threads.into()),
        ("k", opts.k.into()),
        ("crashed_per_shard", crashed_per_shard.into()),
        ("crashed_total", (crashed_per_shard * shards).into()),
        ("in_flight_lanes", in_flight.into()),
        ("availability", stats_json(&avail)),
        (
            "shed",
            Json::obj(vec![
                ("dead_shard", 0u64.into()),
                ("extra_crashes", 1u64.into()),
                ("run", stats_json(&shed_stats)),
                ("attempts_served", served.load(Ordering::Relaxed).into()),
                ("attempts_shed", sheds.into()),
            ]),
        ),
        ("imbalance", imbalance_json(&store, &ops_baseline)),
    ]);

    // ---- document -------------------------------------------------------
    sink.put("schema", "kex-bench/store/v2".into());
    sink.put("ordering_build", ordering_build().into());
    sink.put(
        "cpus",
        std::thread::available_parallelism()
            .map_or(0usize, |n| n.get())
            .into(),
    );
    sink.put("k", opts.k.into());
    sink.put("keys", opts.keys.into());
    sink.put("zipf_s", opts.zipf_s.into());
    sink.put("zipf_hottest_mass", zipf.hottest_mass().into());
    sink.put("read_pct", opts.read_pct.into());
    sink.put("seed", SEED.into());
    sink.put("duration_ms", (opts.duration.as_millis() as u64).into());
    sink.put("warmup_ms", (cfg.warmup.as_millis() as u64).into());
    sink.put("latency_sample_every", cfg.sample_every.into());
    sink.put("windows_per_cell", windows.into());
    sink.put(
        "shard_counts",
        Json::arr(opts.shards.iter().map(|&s| s.into()).collect()),
    );
    sink.put(
        "thread_counts",
        Json::arr(opts.threads.iter().map(|&t| t.into()).collect()),
    );
    sink.put("grid", Json::arr(grid));
    sink.put("crash_mix", crash_mix);
    sink.finish();

    // Schema self-check: the acceptance surface the CI smoke run pins.
    if opts.smoke {
        assert!(opts.shards.len() >= 2, "smoke grid needs >= 2 shard counts");
        assert!(
            opts.threads.len() >= 3,
            "smoke grid needs >= 3 thread counts"
        );
    }

    if failures > 0 {
        eprintln!("store: {failures} run(s) failed");
        std::process::exit(1);
    }
    if opts.smoke {
        println!(
            "SMOKE OK: {} grid cells + crash-mix (k-1 dead per shard) all made progress",
            opts.shards.len() * opts.threads.len()
        );
    }
}
