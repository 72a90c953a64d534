//! The two runs of every workload: end to end (untraced) and layers
//! (an untraced reference, a traced run, and the ladder).

use std::path::Path;
use std::time::{Duration, Instant};

use kex_bench::contend::LatencyHist;
use kex_core::native::Resilient;
use kex_store::{KvCells, ShardObject};
use kex_waitfree::WfQueue;

use crate::alloc;
use crate::kv::{self, ThreadWindow, KV_TREE, OPS_LEN, TRACE_CAP};
use crate::ladder::{self, QueueRung, StoreLadder, LADDER_OPS};
use crate::queue::{self, Episode, Lane, QUEUE_TREE};
use crate::report::Report;
use crate::stats::{median, quantile};
use crate::trace::{self, OpSpans, SpanTree};
use crate::workload::{
    kv_ops, queue_control, queue_values, KvSpec, QueueSpec, QUEUE_CONTROL_STORE, THREADS, WF_QUEUE,
};

/// Length of one measured window on the key/value workloads.
const WINDOW: Duration = Duration::from_millis(500);

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Queue constructions timed together: one takes microseconds.
const QUEUE_SETUP_BATCH: usize = 64;

/// Timed ladder runs: 11 store rungs at two thread counts.
const RUNG_RUNS: f64 = 22.0;

/// What the measured windows or episodes add up to: a throughput and a
/// served share each, and the latencies of all their ops.
struct Measured {
    rates: Vec<f64>,
    served: Vec<f64>,
    all: LatencyHist,
    write: LatencyHist,
}

impl Measured {
    fn with_capacity(n: usize) -> Measured {
        Measured {
            rates: Vec::with_capacity(n),
            served: Vec::with_capacity(n),
            all: LatencyHist::new(),
            write: LatencyHist::new(),
        }
    }
}

/// Prints and records the end-to-end metrics: medians over the windows
/// or episodes for throughput and served share, percentiles over all
/// their ops for latency.
fn emit_end_to_end(
    report: &mut Report,
    m: &Measured,
    setup_s: &[f64],
    mem_bytes: usize,
    per: &str,
) {
    let n = m.rates.len();
    let lat = format!("{} samples over {n} {per}", m.all.samples());
    let wlat = format!("{} samples over {n} {per}", m.write.samples());
    report.metric(
        "ops_per_s",
        median(&m.rates),
        "1/s",
        &format!("median of {n} {per}"),
    );
    report.metric("op_p50_ns", quantile(&m.all, 0.5), "ns", &lat);
    report.metric("op_p99_ns", quantile(&m.all, 0.99), "ns", &lat);
    report.metric("write_p50_ns", quantile(&m.write, 0.5), "ns", &wlat);
    report.metric("write_p99_ns", quantile(&m.write, 0.99), "ns", &wlat);
    let served = median(&m.served);
    report.metric(
        "served_share",
        served,
        "ratio",
        &format!("fail_share = {:.6}", 1.0 - served),
    );
    report.metric(
        "setup_s",
        median(setup_s),
        "s",
        &format!("median of {} set-ups", setup_s.len()),
    );
    report.metric(
        "mem_mb",
        mem_bytes as f64 / 1e6,
        "MB",
        "peak heap over the inputs",
    );
}

/// All threads' ops over their own elapsed time, in window `w`.
fn window_rate(results: &[Vec<ThreadWindow>], w: usize) -> f64 {
    results
        .iter()
        .map(|t| t[w].counts.ops as f64 * 1e9 / t[w].elapsed_ns.max(1) as f64)
        .sum()
}

fn tally_windows(report: &mut Report, results: &[Vec<ThreadWindow>]) {
    for tw in results.iter().flatten() {
        report.attempted += tw.counts.ops;
        report.failed += tw.counts.wrong;
    }
}

/// The end-to-end run of a key/value workload over shard objects from
/// `make`: `SETUP_REPS` set-ups, then a warm-up window and
/// `seconds / WINDOW` measured windows.
pub fn kv_end_to_end<O: ShardObject>(
    spec: &KvSpec,
    seed: u64,
    seconds: Duration,
    make: impl Fn() -> O,
) -> Report {
    let mut report = Report::default();
    let ops = kv_ops(spec, seed, OPS_LEN);
    let windows = ((seconds.as_secs_f64() / WINDOW.as_secs_f64()).round() as usize).max(2);
    let window = seconds / windows as u32;
    let slots = ThreadWindow::slots(windows + 1);
    let mut snaps = Vec::with_capacity(windows + 2);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut measured = Measured::with_capacity(windows);

    let base = alloc::live();
    alloc::reset_peak();
    let mut store = None;
    for _ in 0..SETUP_REPS {
        drop(store.take());
        let t0 = Instant::now();
        let built = kv::setup(spec, &make);
        setup_s.push(t0.elapsed().as_secs_f64());
        store = Some(built);
    }
    let store = store.expect("at least one set-up");
    kv::check_setup(&mut report, spec, &store);
    let results = kv::run_windows(&store, spec, &ops, window, slots, &mut snaps);
    let mem = alloc::peak().saturating_sub(base);

    kv::check_windows(&mut report, &ops, &results, &snaps);
    kv::check_final(&mut report, spec, &store, &ops, &results);
    tally_windows(&mut report, &results);
    for w in 1..=windows {
        let mut counts = kv::Counts::default();
        for t in &results {
            counts.merge(&t[w].counts);
            measured.all.merge(&t[w].all);
            measured.write.merge(&t[w].write);
        }
        measured.rates.push(window_rate(&results, w));
        measured
            .served
            .push(counts.served as f64 / counts.ops.max(1) as f64);
    }
    emit_end_to_end(&mut report, &measured, &setup_s, mem, "windows");
    report
}

/// One episode on a fresh `Resilient<WfQueue>`, drained and checked.
fn queue_episode(spec: &QueueSpec, lanes: &mut [Lane], report: &mut Report) -> Episode {
    let res = Resilient::new(spec.n, spec.k, WfQueue::<u64>::new(spec.k));
    let ep = queue::episode(spec, lanes, |lane, t, v| match v {
        Some(v) => res.with(t, |q, name| q.enqueue(name, v)),
        None => lane.dequeued(res.with(t, |q, name| q.dequeue(name))),
    });
    let drained: Vec<u64> = std::iter::from_fn(|| res.with(0, |q, name| q.dequeue(name))).collect();
    drop(res);
    queue::check_episode(report, "queue episode", spec, lanes, drained);
    report.attempted += ep.ops;
    report.failed += lanes.iter().map(|l| l.empty).sum::<u64>();
    ep
}

/// The end-to-end run of wf-queue: `SETUP_REPS` batches of queue
/// constructions, then a warm-up episode and episodes until `seconds`
/// have passed.
pub fn queue_end_to_end(seed: u64, seconds: Duration) -> Report {
    let mut report = Report::default();
    let spec = WF_QUEUE;
    let mut lanes = Lane::new(&spec, &queue_values(&spec, seed), false);
    let mut measured = Measured::with_capacity(seconds.as_secs() as usize + 2);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = Vec::with_capacity(QUEUE_SETUP_BATCH);

    let base = alloc::live();
    alloc::reset_peak();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        for _ in 0..QUEUE_SETUP_BATCH {
            built.push(Resilient::new(spec.n, spec.k, WfQueue::<u64>::new(spec.k)));
        }
        setup_s.push(t0.elapsed().as_secs_f64() / QUEUE_SETUP_BATCH as f64);
        built.clear();
    }
    let start = Instant::now();
    let mut warm = false;
    while !warm || measured.rates.is_empty() || start.elapsed() < seconds {
        queue::reset(&mut lanes);
        let ep = queue_episode(&spec, &mut lanes, &mut report);
        if warm {
            let empty: u64 = lanes.iter().map(|l| l.empty).sum();
            measured.rates.push(ep.ops_per_s);
            measured
                .served
                .push((ep.ops - empty) as f64 / ep.ops as f64);
            for l in &lanes {
                measured.all.merge(&l.all);
                measured.write.merge(&l.write);
            }
        }
        warm = true;
    }
    let mem = alloc::peak().saturating_sub(base);
    emit_end_to_end(&mut report, &measured, &setup_s, mem, "episodes");
    report
}

/// Prints the spans' mean and self times and writes the first ops'
/// spans to `out/<workload>.spans.tsv` beside this package.
fn spans_out(workload: &str, tree: &SpanTree, spans: &[Vec<OpSpans>]) {
    let ops: usize = spans.iter().map(Vec::len).sum();
    for (i, (dur, own)) in trace::summarize(tree, spans).iter().enumerate() {
        println!(
            "  span {:<22} mean {dur:>10.1} ns  self {own:>10.1} ns  ({ops} ops)",
            tree.names[i]
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.spans.tsv"));
    if let Err(e) = trace::write_tsv(&path, tree, spans) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Prints the per-op attribution (layer self times and the clock) and
/// returns what it leaves unexplained of the untraced per-op time.
fn attribute(parts: &[(&str, f64)], per_op: f64) -> f64 {
    println!("  attribution of {per_op:.1} ns per op per thread (untraced, T = {THREADS}):");
    for (name, ns) in parts {
        println!("    {name:<34} {ns:>8.1} ns");
    }
    let unattributed = per_op - parts.iter().map(|p| p.1).sum::<f64>();
    println!("    {:<34} {unattributed:>8.1} ns", "trace.unattributed");
    unattributed
}

fn emit_layers(
    report: &mut Report,
    l: &StoreLadder,
    q: &QueueRung,
    timer: f64,
    overhead: f64,
    unattributed: f64,
) {
    let rows = [
        ("store.hash.route_ns", l.route.t2.ns, "ns"),
        (
            "store.shard.ops_max_over_mean",
            l.ops_max_over_mean,
            "ratio",
        ),
        ("core.resilient.with_ns", l.with.t2.ns, "ns"),
        ("core.resilient.gate_ns", l.gate_ns(), "ns"),
        ("core.resilient.try_with_ns", l.try_with.t2.ns, "ns"),
        (
            "core.resilient.refusals",
            l.try_with.sheds() as f64,
            "count",
        ),
        ("core.fast_path.pair_ns", l.fast_path.t2.ns, "ns"),
        ("core.fast_path.scaling", l.fast_path.scaling(), "ratio"),
        ("core.renaming.pair_ns", l.renaming.t2.ns, "ns"),
        ("core.renaming.scaling", l.renaming.scaling(), "ratio"),
        ("core.assignment.pair_ns", l.assignment.t2.ns, "ns"),
        ("core.assignment.scaling", l.assignment.scaling(), "ratio"),
        ("store.object.get_ns", l.object_get.t2.ns, "ns"),
        ("store.object.put_ns", l.object_put.t2.ns, "ns"),
        ("store.object.keys", l.keys as f64, "count"),
        ("store.journal.pair_ns", l.journal.t2.ns, "ns"),
        ("store.journal.committed", l.committed as f64, "count"),
        (
            "store.journal.in_flight_lanes",
            l.in_flight_lanes as f64,
            "count",
        ),
        ("store.shard.get_ns", l.shard_get.t2.ns, "ns"),
        ("store.shard.put_ns", l.shard_put.t2.ns, "ns"),
        ("store.shard.self_ns", l.shard_self_ns(), "ns"),
        ("store.shard.ops", l.shard_ops as f64, "count"),
        ("store.shard.sheds", l.shard_sheds as f64, "count"),
        ("waitfree.queue.enqueue_ns", q.enqueue_ns, "ns"),
        ("waitfree.queue.dequeue_ns", q.dequeue_ns, "ns"),
        ("waitfree.queue.cost_growth", q.cost_growth, "ratio"),
        ("waitfree.queue.bytes_per_op", q.bytes_per_op, "B"),
        ("bench.timer_ns", timer, "ns"),
        ("trace.overhead", overhead, "ratio"),
        ("trace.unattributed_ns", unattributed, "ns"),
    ];
    for (name, value, unit) in rows {
        report.metric(name, value, unit, "");
    }
}

/// Ladder time per timed rung run, out of `share` of the run.
fn rung_budget(seconds: Duration, share: f64) -> Duration {
    Duration::from_secs_f64(seconds.as_secs_f64() * share / RUNG_RUNS)
}

/// The layers run of a key/value workload.
pub fn kv_layers(workload: &str, spec: &KvSpec, seed: u64, seconds: Duration) -> Report {
    let mut report = Report::default();
    let ops = kv_ops(spec, seed, OPS_LEN);
    let store = kv::setup(spec, &|| KvCells::new(spec.capacity));
    kv::check_setup(&mut report, spec, &store);

    // Untraced reference: a warm-up window and three measured ones.
    let window = seconds.mul_f64(0.25 / 4.0);
    let mut snaps = Vec::with_capacity(6);
    let results = kv::run_windows(
        &store,
        spec,
        &ops,
        window,
        ThreadWindow::slots(4),
        &mut snaps,
    );
    kv::check_windows(&mut report, &ops, &results, &snaps);
    tally_windows(&mut report, &results);
    let untraced = median(&(1..4).map(|w| window_rate(&results, w)).collect::<Vec<_>>());

    let before = kv::totals(&store);
    let bufs = (0..THREADS)
        .map(|_| Vec::with_capacity(TRACE_CAP))
        .collect();
    let (spans, counts, traced) = kv::run_traced(&store, spec, &ops, seconds.mul_f64(0.15), bufs);
    kv::reconcile(
        &mut report,
        "traced run",
        before,
        kv::totals(&store),
        &counts,
    );
    report.attempted += counts.ops;
    report.failed += counts.wrong;
    spans_out(workload, &KV_TREE, &spans);
    drop(spans);

    let ladder_ops: Vec<_> = ops.iter().map(|v| v[..LADDER_OPS].to_vec()).collect();
    let ladder = ladder::store_ladder(spec, &ladder_ops, rung_budget(seconds, 0.5), &mut report);
    let qspec = queue_control(spec.k);
    let q = ladder::queue_rung(&qspec, &queue_values(&qspec, seed), &mut report);
    let timer = ladder::timer_ns();

    let per_op = THREADS as f64 * 1e9 / untraced;
    let mut parts = ladder.attribution();
    parts.push(("bench clock (one read per op)", timer));
    let unattributed = attribute(&parts, per_op);
    emit_layers(
        &mut report,
        &ladder,
        &q,
        timer,
        traced / untraced,
        unattributed,
    );
    report
}

/// The layers run of wf-queue. The store rungs run as a control on a
/// one-shard store at the queue's `k`.
pub fn queue_layers(workload: &str, seed: u64, seconds: Duration) -> Report {
    let mut report = Report::default();
    let spec = WF_QUEUE;
    let values = queue_values(&spec, seed);

    let mut lanes = Lane::new(&spec, &values, false);
    let untraced = queue_episode(&spec, &mut lanes, &mut report).ops_per_s;

    let mut lanes = Lane::new(&spec, &values, true);
    let res = Resilient::new(spec.n, spec.k, WfQueue::<u64>::new(spec.k));
    let epoch = Instant::now();
    let ns = |i: Instant| i.duration_since(epoch).as_nanos() as u64;
    let traced = queue::episode(&spec, &mut lanes, |lane, t, v| {
        let t0 = Instant::now();
        let (t1, t2, got) = res.with(t, |q, name| {
            let t1 = Instant::now();
            let got = match v {
                Some(v) => {
                    q.enqueue(name, v);
                    None
                }
                None => q.dequeue(name),
            };
            (t1, Instant::now(), got)
        });
        let t3 = Instant::now();
        if v.is_none() {
            lane.dequeued(got);
        }
        let t4 = Instant::now();
        lane.spans
            .push([ns(t0), ns(t4), ns(t0), ns(t3), ns(t1), ns(t2)]);
    });
    let drained: Vec<u64> = std::iter::from_fn(|| res.with(0, |q, name| q.dequeue(name))).collect();
    drop(res);
    queue::check_episode(&mut report, "traced queue episode", &spec, &lanes, drained);
    report.attempted += traced.ops;
    report.failed += lanes.iter().map(|l| l.empty).sum::<u64>();
    let spans: Vec<Vec<OpSpans>> = lanes
        .iter_mut()
        .map(|l| std::mem::take(&mut l.spans))
        .collect();
    spans_out(workload, &QUEUE_TREE, &spans);

    let control = kv_ops(&QUEUE_CONTROL_STORE, seed, LADDER_OPS);
    let ladder = ladder::store_ladder(
        &QUEUE_CONTROL_STORE,
        &control,
        rung_budget(seconds, 0.3),
        &mut report,
    );
    let q = ladder::queue_rung(&spec, &values, &mut report);
    let timer = ladder::timer_ns();

    let per_op = THREADS as f64 * 1e9 / untraced;
    let parts = [
        ("core::native::resilient (with)", ladder.with.t2.ns),
        ("waitfree::queue (bare op)", q.op_ns()),
        ("bench clock (one read per op)", timer),
    ];
    let unattributed = attribute(&parts, per_op);
    emit_layers(
        &mut report,
        &ladder,
        &q,
        timer,
        traced.ops_per_s / untraced,
        unattributed,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{KV_CRASH, KV_READ};
    use kex_store::PutError;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    /// A broken shard object: every other overwrite of a present key is
    /// acknowledged but dropped. Populating (all new keys) succeeds.
    struct DropsOverwrites {
        inner: KvCells,
        overwrites: AtomicU64,
    }

    impl ShardObject for DropsOverwrites {
        fn get(&self, name: usize, key: u64) -> Option<u64> {
            self.inner.get(name, key)
        }

        fn put(&self, name: usize, key: u64, value: u64) -> Result<(), PutError> {
            if self.inner.get(name, key).is_some() && self.overwrites.fetch_add(1, Relaxed) % 2 == 1
            {
                return Ok(());
            }
            self.inner.put(name, key, value)
        }

        fn scan(&self, name: usize, f: &mut dyn FnMut(u64, u64)) {
            self.inner.scan(name, f);
        }

        fn len_unguarded(&self) -> usize {
            self.inner.len_unguarded()
        }
    }

    const SHORT: Duration = Duration::from_millis(200);

    #[test]
    fn stock_store_passes_every_check() {
        for spec in [KV_READ, KV_CRASH] {
            let r = kv_end_to_end(&spec, 1, SHORT, || KvCells::new(spec.capacity));
            assert!(r.correct(), "{}", r.json());
        }
    }

    #[test]
    fn a_store_that_drops_writes_fails_the_checks() {
        for spec in [KV_READ, KV_CRASH] {
            let r = kv_end_to_end(&spec, 1, SHORT, || DropsOverwrites {
                inner: KvCells::new(spec.capacity),
                overwrites: AtomicU64::new(0),
            });
            assert!(!r.correct(), "{}", r.json());
        }
    }
}
