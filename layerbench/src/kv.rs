//! The key/value workloads on `kex-store`: set-up, the untraced windowed
//! run, the traced run, and the checks that reconcile the benchmark's
//! own counts with the store's counters.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use kex_bench::contend::LatencyHist;
use kex_store::{Shard, ShardObject, Store, StoreRead, StoreWrite};

use crate::report::Report;
use crate::trace::{OpSpans, SpanTree};
use crate::workload::{crashes_in, store_config, tag, KvSpec, Op, THREADS};

/// Ops generated per thread; replay wraps around.
pub const OPS_LEN: usize = 1 << 20;

/// Ops per thread the traced run keeps spans for.
pub const TRACE_CAP: usize = 1 << 18;

pub const KV_TREE: SpanTree = SpanTree {
    names: ["op", "store.hash", "store.shard"],
    parent: [None, Some(0), Some(0)],
};

/// How one op ended, judged against its input.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// The store refused the op (`try_*` returned `None`).
    pub shed: bool,
    /// A read without its key's tag, a failed write, a shed on a live
    /// shard or a served op on a fully crashed one.
    pub wrong: bool,
}

/// `answer`: `None` = shed, `Some(ok)` = served with a right or wrong
/// result.
fn judge(op: Op, answer: Option<bool>) -> Outcome {
    match answer {
        None => Outcome {
            shed: true,
            wrong: !op.is_dead(),
        },
        Some(ok) => Outcome {
            shed: false,
            wrong: !ok || op.is_dead(),
        },
    }
}

/// One op through the store's public surface.
pub fn exec<O: ShardObject>(store: &Store<O>, nonblocking: bool, p: usize, op: Op) -> Outcome {
    let key = op.key();
    let answer = match (op.is_put(), nonblocking) {
        (true, false) => Some(store.put(p, key, op.value()).is_ok()),
        (true, true) => store.try_put(p, key, op.value()).map(|r| r.is_ok()),
        (false, false) => Some(store.get(p, key).is_some_and(|v| op.tag_matches(v))),
        (false, true) => store
            .try_get(p, key)
            .map(|r| r.is_some_and(|v| op.tag_matches(v))),
    };
    judge(op, answer)
}

/// One op on an already routed shard.
pub fn exec_shard<O: ShardObject>(
    shard: &Shard<O>,
    nonblocking: bool,
    p: usize,
    op: Op,
) -> Outcome {
    let key = op.key();
    let answer = match (op.is_put(), nonblocking) {
        (true, false) => Some(shard.put(p, key, op.value()).is_ok()),
        (true, true) => shard.try_put(p, key, op.value()).map(|r| r.is_ok()),
        (false, false) => Some(shard.get(p, key).is_some_and(|v| op.tag_matches(v))),
        (false, true) => shard
            .try_get(p, key)
            .map(|r| r.is_some_and(|v| op.tag_matches(v))),
    };
    judge(op, answer)
}

/// The benchmark's own tally of a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub ops: u64,
    pub sheds: u64,
    pub puts_ok: u64,
    pub wrong: u64,
    /// Ops that returned a right result.
    pub served: u64,
}

impl Counts {
    pub fn add(&mut self, op: Op, o: Outcome) {
        self.ops += 1;
        self.sheds += u64::from(o.shed);
        self.wrong += u64::from(o.wrong);
        self.puts_ok += u64::from(op.is_put() && !o.shed && !o.wrong);
        self.served += u64::from(!o.shed && !o.wrong);
    }

    pub fn merge(&mut self, other: &Counts) {
        self.ops += other.ops;
        self.sheds += other.sheds;
        self.puts_ok += other.puts_ok;
        self.wrong += other.wrong;
        self.served += other.served;
    }
}

/// The store's own counters, summed over shards.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub ops: u64,
    pub sheds: u64,
    pub committed: u64,
}

pub fn totals<O: ShardObject>(store: &Store<O>) -> Totals {
    let mut t = Totals::default();
    for s in 0..store.shards() {
        let stats = store.shard(s).stats();
        let journal = store.shard(s).journal();
        t.ops += stats.ops;
        t.sheds += stats.sheds;
        t.committed += (0..journal.lanes())
            .map(|n| journal.committed(n))
            .sum::<u64>();
    }
    t
}

/// The store's `ShardStats::ops`/`sheds` and journal deltas over a phase
/// must equal what the benchmark counted in it.
pub fn reconcile(report: &mut Report, phase: &str, before: Totals, after: Totals, c: &Counts) {
    let admitted = c.ops - c.sheds;
    report.check(after.ops - before.ops == admitted, || {
        format!(
            "{phase}: ShardStats::ops grew by {}, benchmark saw {admitted} admitted ops",
            after.ops - before.ops
        )
    });
    report.check(after.sheds - before.sheds == c.sheds, || {
        format!(
            "{phase}: ShardStats::sheds grew by {}, benchmark saw {} sheds",
            after.sheds - before.sheds,
            c.sheds
        )
    });
    report.check(after.committed - before.committed == c.puts_ok, || {
        format!(
            "{phase}: journals committed {} puts, benchmark saw {} successful puts",
            after.committed - before.committed,
            c.puts_ok
        )
    });
}

/// Builds the store, writes every key, and injects the crashes.
pub fn setup<O: ShardObject>(spec: &KvSpec, make: &impl Fn() -> O) -> Store<O> {
    let store = Store::with_objects(&store_config(spec), |_| make());
    for key in 0..spec.keys as u64 {
        // A refused write shows in `check_setup` and in every later read.
        let _ = store.put(0, key, tag(key) << 16);
    }
    for s in 0..spec.shards {
        let crashes = crashes_in(spec, s);
        if crashes > 0 {
            let key = (0..spec.keys as u64)
                .find(|&k| store.shard_of(k) == s)
                .expect("every shard owns a key");
            for j in 0..crashes {
                store.crash_in_cs(THREADS + j, key, tag(key) << 16 | 0xFFFF);
            }
        }
    }
    store
}

/// Every key is present, every journal committed exactly the populating
/// puts, and every injected crash pins exactly one lane.
pub fn check_setup<O: ShardObject>(report: &mut Report, spec: &KvSpec, store: &Store<O>) {
    report.check(kex_store::StoreScan::len(store) == spec.keys, || {
        format!(
            "store holds {} keys after writing {}",
            kex_store::StoreScan::len(store),
            spec.keys
        )
    });
    report.check(totals(store).committed == spec.keys as u64, || {
        format!(
            "journals committed {} puts while populating {} keys",
            totals(store).committed,
            spec.keys
        )
    });
    for s in 0..spec.shards {
        let lanes = store.shard(s).stats().in_flight_lanes;
        report.check(lanes == crashes_in(spec, s), || {
            format!(
                "shard {s}: {lanes} in-flight lanes, {} crashes injected",
                crashes_in(spec, s)
            )
        });
    }
}

/// One thread's share of one window.
#[derive(Debug, Clone)]
pub struct ThreadWindow {
    pub counts: Counts,
    /// Op positions `from..from + counts.ops` of the thread's replay.
    pub from: u64,
    pub elapsed_ns: u64,
    pub all: LatencyHist,
    pub write: LatencyHist,
}

impl ThreadWindow {
    pub fn slots(windows: usize) -> Vec<Vec<ThreadWindow>> {
        let w = ThreadWindow {
            counts: Counts::default(),
            from: 0,
            elapsed_ns: 0,
            all: LatencyHist::new(),
            write: LatencyHist::new(),
        };
        vec![vec![w; windows]; THREADS]
    }
}

/// Runs one closed-loop window per slot, back to back: every thread
/// replays its ops until the window's time is up, timing each op from
/// the end of the previous one (one clock read per op). `snaps` gets
/// the store's totals before every window and after the last one,
/// taken while the threads wait at a barrier.
pub fn run_windows<O: ShardObject>(
    store: &Store<O>,
    spec: &KvSpec,
    ops: &[Vec<Op>],
    window: Duration,
    slots: Vec<Vec<ThreadWindow>>,
    snaps: &mut Vec<Totals>,
) -> Vec<Vec<ThreadWindow>> {
    let windows = slots[0].len();
    let barrier = Barrier::new(THREADS + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = slots
            .into_iter()
            .enumerate()
            .map(|(t, mut mine)| {
                let barrier = &barrier;
                let ops = &ops[t];
                s.spawn(move || {
                    let mask = ops.len() - 1;
                    let mut pos = 0u64;
                    for w in &mut mine {
                        barrier.wait();
                        w.from = pos;
                        let start = Instant::now();
                        let deadline = start + window;
                        let mut prev = start;
                        loop {
                            let op = ops[pos as usize & mask];
                            pos += 1;
                            let o = exec(store, spec.nonblocking, t, op);
                            let now = Instant::now();
                            let ns = now.duration_since(prev).as_nanos() as u64;
                            w.all.record(ns);
                            if op.is_put() {
                                w.write.record(ns);
                            }
                            w.counts.add(op, o);
                            prev = now;
                            if now >= deadline {
                                break;
                            }
                        }
                        w.elapsed_ns = prev.duration_since(start).as_nanos() as u64;
                        barrier.wait();
                    }
                    mine
                })
            })
            .collect();
        for _ in 0..windows {
            snaps.push(totals(store));
            barrier.wait();
            barrier.wait();
        }
        snaps.push(totals(store));
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Ops routed to the fully crashed shard among replay positions
/// `from..to`, computed from the inputs alone.
pub fn dead_between(ops: &[Op], from: u64, to: u64) -> u64 {
    let total = ops.iter().filter(|o| o.is_dead()).count() as u64;
    if total == 0 {
        return 0;
    }
    let len = ops.len() as u64;
    let prefix = |x: u64| {
        x / len * total
            + ops[..(x % len) as usize]
                .iter()
                .filter(|o| o.is_dead())
                .count() as u64
    };
    prefix(to) - prefix(from)
}

/// Checks every window: counter deltas, and sheds against the inputs.
pub fn check_windows(
    report: &mut Report,
    ops: &[Vec<Op>],
    results: &[Vec<ThreadWindow>],
    snaps: &[Totals],
) {
    for w in 0..results[0].len() {
        let mut c = Counts::default();
        let mut expected_sheds = 0;
        for (t, thread) in results.iter().enumerate() {
            let tw = &thread[w];
            c.merge(&tw.counts);
            expected_sheds += dead_between(&ops[t], tw.from, tw.from + tw.counts.ops);
        }
        reconcile(report, &format!("window {w}"), snaps[w], snaps[w + 1], &c);
        report.check(c.sheds == expected_sheds, || {
            format!(
                "window {w}: {} sheds, inputs route {expected_sheds} ops to the crashed shard",
                c.sheds
            )
        });
    }
}

/// A traced run: up to `TRACE_CAP` ops per thread or `budget`, each op
/// recording `op ⊃ {store.hash, store.shard}` spans around
/// `Store::shard_of` and the routed `Shard` call.
pub fn run_traced<O: ShardObject>(
    store: &Store<O>,
    spec: &KvSpec,
    ops: &[Vec<Op>],
    budget: Duration,
    bufs: Vec<Vec<OpSpans>>,
) -> (Vec<Vec<OpSpans>>, Counts, f64) {
    let barrier = Barrier::new(THREADS);
    let epoch = Instant::now();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let out: Vec<(Vec<OpSpans>, Counts, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = bufs
            .into_iter()
            .enumerate()
            .map(|(t, mut buf)| {
                let barrier = &barrier;
                let ops = &ops[t];
                s.spawn(move || {
                    let mask = ops.len() - 1;
                    let mut counts = Counts::default();
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + budget;
                    let mut last = start;
                    for pos in 0..TRACE_CAP {
                        let op = ops[pos & mask];
                        let t0 = Instant::now();
                        let shard = store.shard_of(op.key());
                        let t1 = Instant::now();
                        let o = exec_shard(store.shard(shard), spec.nonblocking, t, op);
                        let t2 = Instant::now();
                        counts.add(op, o);
                        let t3 = Instant::now();
                        buf.push([ns(t0), ns(t3), ns(t0), ns(t1), ns(t1), ns(t2)]);
                        last = t3;
                        if t3 >= deadline {
                            break;
                        }
                    }
                    let rate = counts.ops as f64 / last.duration_since(start).as_secs_f64();
                    (buf, counts, rate)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced thread panicked"))
            .collect()
    });
    let mut counts = Counts::default();
    let mut rate = 0.0;
    let mut spans = Vec::with_capacity(THREADS);
    for (buf, c, r) in out {
        counts.merge(&c);
        rate += r;
        spans.push(buf);
    }
    (spans, counts, rate)
}

/// After the run, every key on a live shard holds the last value some
/// thread wrote to it, or, if no thread wrote it, the value set-up wrote
/// (tag only) or a crash left (tag and `0xFFFF`). A lost or misplaced
/// write fails this.
pub fn check_final<O: ShardObject>(
    report: &mut Report,
    spec: &KvSpec,
    store: &Store<O>,
    ops: &[Vec<Op>],
    results: &[Vec<ThreadWindow>],
) {
    let mut last = vec![vec![None; spec.keys]; THREADS];
    for (t, thread) in results.iter().enumerate() {
        let end = thread.last().map_or(0, |w| w.from + w.counts.ops);
        let len = ops[t].len() as u64;
        for pos in end.saturating_sub(len)..end {
            let op = ops[t][(pos % len) as usize];
            if op.is_put() && !op.is_dead() {
                last[t][op.key() as usize] = Some(op.value());
            }
        }
    }
    let mut bad = 0;
    for key in 0..spec.keys as u64 {
        if spec.crash && store.shard_of(key) == 0 {
            continue;
        }
        let got = if spec.nonblocking {
            store.try_get(0, key).flatten()
        } else {
            store.get(0, key)
        };
        let mut writes = last.iter().filter_map(|l| l[key as usize]).peekable();
        let ok = match got {
            None => false,
            Some(v) if writes.peek().is_some() => writes.any(|w| w == v),
            Some(v) => v >> 16 == tag(key) && matches!(v & 0xFFFF, 0 | 0xFFFF),
        };
        bad += u64::from(!ok);
    }
    report.check(bad == 0, || {
        format!("{bad} keys do not hold their last written value")
    });
}
