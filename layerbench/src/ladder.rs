//! The layer ladder: every public layer of the store stack timed on its
//! own, on the workload's op stream, at T = 1 and T = 2, plus the bare
//! wait-free queue and the clock.
//!
//! A rung builds one instance of its layer per shard, mirroring the
//! store: the same (n, k), the same crashed holders, names and lanes,
//! and each op goes to the instance of the shard its key routes to
//! (routing is done before timing). Ops that never reach a layer in the
//! store - those a fully crashed shard refuses at the gate - are left
//! out of that layer's rung. A call of a few ns is far below one clock
//! read, so calls are timed in batches and a rung reports the median
//! batch time divided by the batch size.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use kex_bench::contend::LatencyHist;
use kex_core::native::{FastPathKex, KAssignment, RawKex, Resilient, TasRenaming};
use kex_store::{shard_of, KvCells, LaneJournal, OpKind, ShardObject};
use kex_waitfree::WfQueue;

use crate::kv::{self, Counts, Outcome};
use crate::queue::{self, Lane};
use crate::report::Report;
use crate::stats::quantile;
use crate::workload::{crashes_in, store_config, tag, KvSpec, Op, QueueSpec, THREADS};

/// Ops per thread a rung cycles over.
pub const LADDER_OPS: usize = 1 << 16;

/// Calls per timed batch.
const BATCH: usize = 64;

/// An op with its shard already routed.
#[derive(Debug, Clone, Copy)]
pub struct Routed {
    pub shard: usize,
    pub op: Op,
}

/// One thread count's result: per-call ns of one thread, and what the
/// calls returned.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timed {
    pub ns: f64,
    pub calls: u64,
    pub sheds: u64,
    pub wrong: u64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Rung {
    pub t1: Timed,
    pub t2: Timed,
}

impl Rung {
    /// Throughput at T = 2 over throughput at T = 1.
    pub fn scaling(&self) -> f64 {
        2.0 * self.t1.ns / self.t2.ns
    }

    pub fn sheds(&self) -> u64 {
        self.t1.sheds + self.t2.sheds
    }

    fn wrong(&self) -> u64 {
        self.t1.wrong + self.t2.wrong
    }

    fn calls(&self) -> u64 {
        self.t1.calls + self.t2.calls
    }
}

const OK: Outcome = Outcome {
    shed: false,
    wrong: false,
};

fn ok_if(ok: bool) -> Outcome {
    Outcome {
        shed: false,
        wrong: !ok,
    }
}

/// Runs `call(thread, op)` over `lists[thread]` on `threads` threads for
/// `budget`, in timed batches.
fn time_calls(
    lists: &[Vec<Routed>],
    threads: usize,
    budget: Duration,
    call: &(impl Fn(usize, Routed) -> Outcome + Sync),
) -> Timed {
    let barrier = Barrier::new(threads);
    let per: Vec<(LatencyHist, Timed)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, list) = (&barrier, &lists[t]);
                s.spawn(move || {
                    let mut hist = LatencyHist::new();
                    let mut timed = Timed::default();
                    let mut i = 0;
                    barrier.wait();
                    let deadline = Instant::now() + budget;
                    loop {
                        let t0 = Instant::now();
                        for _ in 0..BATCH {
                            let o = call(t, list[i]);
                            timed.sheds += u64::from(o.shed);
                            timed.wrong += u64::from(o.wrong);
                            i += 1;
                            if i == list.len() {
                                i = 0;
                            }
                        }
                        let t1 = Instant::now();
                        hist.record(t1.duration_since(t0).as_nanos() as u64);
                        timed.calls += BATCH as u64;
                        if t1 >= deadline {
                            break;
                        }
                    }
                    (hist, timed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rung thread panicked"))
            .collect()
    });
    let mut hist = LatencyHist::new();
    let mut total = Timed::default();
    for (h, t) in &per {
        hist.merge(h);
        total.calls += t.calls;
        total.sheds += t.sheds;
        total.wrong += t.wrong;
    }
    total.ns = quantile(&hist, 0.5) / BATCH as f64;
    total
}

fn rung(
    lists: &[Vec<Routed>],
    budget: Duration,
    call: impl Fn(usize, Routed) -> Outcome + Sync,
) -> Rung {
    Rung {
        t1: time_calls(lists, 1, budget, &call),
        t2: time_calls(lists, THREADS, budget, &call),
    }
}

/// The store stack's rungs for one workload, and the counts they saw.
#[derive(Debug, Default, Clone)]
pub struct StoreLadder {
    pub nonblocking: bool,
    pub route: Rung,
    pub fast_path: Rung,
    pub renaming: Rung,
    pub assignment: Rung,
    pub with: Rung,
    pub try_with: Rung,
    pub object_get: Rung,
    pub object_put: Rung,
    pub journal: Rung,
    pub shard_get: Rung,
    pub shard_put: Rung,
    /// Shares of the op stream: reaching the object at all (not refused
    /// at the gate), gets, puts, and admitted gets and puts.
    pub admitted: f64,
    pub gets: f64,
    pub puts: f64,
    pub admitted_gets: f64,
    pub admitted_puts: f64,
    /// Store counter deltas over the shard rungs.
    pub shard_ops: u64,
    pub shard_sheds: u64,
    pub ops_max_over_mean: f64,
    pub committed: u64,
    pub in_flight_lanes: usize,
    pub keys: usize,
}

impl StoreLadder {
    /// The wrapper's cost per op at T = 2: `Resilient::with` for
    /// admitted ops, or `try_with` over every op (refusals included).
    pub fn wrapper_ns(&self) -> f64 {
        if self.nonblocking {
            self.try_with.t2.ns
        } else {
            self.with.t2.ns * self.admitted
        }
    }

    /// Gate self time per op: the wrapper minus k-assignment.
    pub fn gate_ns(&self) -> f64 {
        self.wrapper_ns() - self.assignment.t2.ns * self.admitted
    }

    pub fn object_ns(&self) -> f64 {
        self.object_get.t2.ns * self.admitted_gets + self.object_put.t2.ns * self.admitted_puts
    }

    pub fn journal_ns(&self) -> f64 {
        self.journal.t2.ns * self.admitted_puts
    }

    /// A routed shard op per op of the stream.
    pub fn shard_op_ns(&self) -> f64 {
        self.shard_get.t2.ns * self.gets + self.shard_put.t2.ns * self.puts
    }

    /// Shard op minus the rungs inside it: the shard's counters and glue.
    pub fn shard_self_ns(&self) -> f64 {
        self.shard_op_ns() - self.wrapper_ns() - self.object_ns() - self.journal_ns()
    }

    /// Per-op self times that add up to route plus shard op: what one
    /// store op costs per the ladder.
    pub fn attribution(&self) -> Vec<(&'static str, f64)> {
        let a = self.admitted;
        vec![
            ("store::hash", self.route.t2.ns),
            ("core::native::resilient (gate)", self.gate_ns()),
            ("core::native::fast_path", self.fast_path.t2.ns * a),
            ("core::native::renaming", self.renaming.t2.ns * a),
            (
                "core::native::assignment (glue)",
                (self.assignment.t2.ns - self.fast_path.t2.ns - self.renaming.t2.ns) * a,
            ),
            ("store::object", self.object_ns()),
            ("store::journal", self.journal_ns()),
            ("store::shard (counters)", self.shard_self_ns()),
        ]
    }
}

fn share(lists: &[Vec<Routed>], all: &[Vec<Routed>]) -> f64 {
    let n: usize = lists.iter().map(Vec::len).sum();
    n as f64 / all.iter().map(Vec::len).sum::<usize>() as f64
}

/// Times every store-stack rung for `spec` over `ops` (one list per
/// thread), `budget` per rung and thread count.
pub fn store_ladder(
    spec: &KvSpec,
    ops: &[Vec<Op>],
    budget: Duration,
    report: &mut Report,
) -> StoreLadder {
    let cfg = store_config(spec);
    let all: Vec<Vec<Routed>> = ops
        .iter()
        .map(|v| {
            v.iter()
                .map(|&op| Routed {
                    shard: shard_of(op.key(), cfg.seed, spec.shards),
                    op,
                })
                .collect()
        })
        .collect();
    let filter = |keep: fn(&Routed) -> bool| -> Vec<Vec<Routed>> {
        all.iter()
            .map(|v| v.iter().copied().filter(keep).collect())
            .collect()
    };
    let admitted = filter(|r| !r.op.is_dead());
    let gets = filter(|r| !r.op.is_put());
    let puts = filter(|r| r.op.is_put());
    let admitted_gets = filter(|r| !r.op.is_dead() && !r.op.is_put());
    let admitted_puts = filter(|r| !r.op.is_dead() && r.op.is_put());

    // Per-shard layer instances with the workload's crashed holders.
    let shards = 0..spec.shards;
    let crashed: Vec<usize> = shards.clone().map(|s| crashes_in(spec, s)).collect();
    let kexes: Vec<FastPathKex> = shards
        .clone()
        .map(|s| {
            let kex = FastPathKex::new(spec.n, spec.k);
            for j in 0..crashed[s] {
                kex.acquire(THREADS + j);
            }
            kex
        })
        .collect();
    let names: Vec<TasRenaming> = shards
        .clone()
        .map(|s| {
            let names = TasRenaming::new(spec.k);
            for _ in 0..crashed[s] {
                names.acquire_name();
            }
            names
        })
        .collect();
    let assigns: Vec<KAssignment> = shards
        .clone()
        .map(|s| {
            let assign = KAssignment::new(spec.n, spec.k);
            for j in 0..crashed[s] {
                std::mem::forget(assign.enter(THREADS + j));
            }
            assign
        })
        .collect();
    let gates: Vec<Resilient<()>> = shards
        .clone()
        .map(|s| {
            let gate = Resilient::new(spec.n, spec.k, ());
            for j in 0..crashed[s] {
                std::mem::forget(gate.enter(THREADS + j));
            }
            gate
        })
        .collect();
    let cells: Vec<KvCells> = shards
        .clone()
        .map(|_| KvCells::new(spec.capacity))
        .collect();
    for key in 0..spec.keys as u64 {
        let _ = cells[shard_of(key, cfg.seed, spec.shards)].put(0, key, tag(key) << 16);
    }
    let journals: Vec<LaneJournal> = shards
        .clone()
        .map(|s| {
            let journal = LaneJournal::new(spec.k, cfg.journal_depth);
            for lane in 0..crashed[s] {
                journal.begin(lane, OpKind::Put, 0, 0);
            }
            journal
        })
        .collect();
    let store = kv::setup(spec, &|| KvCells::new(spec.capacity));
    kv::check_setup(report, spec, &store);

    let mut l = StoreLadder {
        nonblocking: spec.nonblocking,
        admitted: share(&admitted, &all),
        gets: share(&gets, &all),
        puts: share(&puts, &all),
        admitted_gets: share(&admitted_gets, &all),
        admitted_puts: share(&admitted_puts, &all),
        in_flight_lanes: (0..spec.shards)
            .map(|s| store.shard(s).stats().in_flight_lanes)
            .sum(),
        keys: kex_store::StoreScan::len(&store),
        ..StoreLadder::default()
    };
    l.route = rung(&all, budget, |_, r| {
        black_box(store.shard_of(black_box(r.op.key())));
        OK
    });
    l.fast_path = rung(&admitted, budget, |t, r| {
        kexes[r.shard].acquire(t);
        kexes[r.shard].release(t);
        OK
    });
    l.renaming = rung(&admitted, budget, |_, r| {
        let name = names[r.shard].acquire_name();
        names[r.shard].release_name(black_box(name));
        OK
    });
    l.assignment = rung(&admitted, budget, |t, r| {
        black_box(assigns[r.shard].enter(t).name());
        OK
    });
    l.with = rung(&admitted, budget, |t, r| {
        gates[r.shard].with(t, |_, name| black_box(name));
        OK
    });
    l.try_with = rung(&all, budget, |t, r| {
        let admitted = gates[r.shard]
            .try_with(t, |_, name| black_box(name))
            .is_some();
        Outcome {
            shed: !admitted,
            wrong: admitted == r.op.is_dead(),
        }
    });
    l.object_get = rung(&admitted_gets, budget, |t, r| {
        ok_if(
            cells[r.shard]
                .get(t, r.op.key())
                .is_some_and(|v| r.op.tag_matches(v)),
        )
    });
    l.object_put = rung(&admitted_puts, budget, |t, r| {
        ok_if(cells[r.shard].put(t, r.op.key(), r.op.value()).is_ok())
    });
    l.journal = rung(&admitted_puts, budget, |t, r| {
        let lane = crashed[r.shard] + t;
        let lsn = journals[r.shard].begin(lane, OpKind::Put, r.op.key(), r.op.value());
        journals[r.shard].commit(lane, lsn);
        OK
    });

    let per_shard = |store: &kex_store::KvStore| -> Vec<u64> {
        (0..spec.shards)
            .map(|s| store.shard(s).stats().ops)
            .collect()
    };
    let (before, shard_ops_before) = (kv::totals(&store), per_shard(&store));
    l.shard_get = rung(&gets, budget, |t, r| {
        kv::exec_shard(store.shard(r.shard), spec.nonblocking, t, r.op)
    });
    l.shard_put = rung(&puts, budget, |t, r| {
        kv::exec_shard(store.shard(r.shard), spec.nonblocking, t, r.op)
    });
    let (after, shard_ops_after) = (kv::totals(&store), per_shard(&store));
    let put_sheds_or_wrong = l.shard_put.sheds() + l.shard_put.wrong();
    let counts = Counts {
        ops: l.shard_get.calls() + l.shard_put.calls(),
        sheds: l.shard_get.sheds() + l.shard_put.sheds(),
        puts_ok: l.shard_put.calls() - put_sheds_or_wrong.min(l.shard_put.calls()),
        wrong: l.shard_get.wrong() + l.shard_put.wrong(),
        served: 0,
    };
    kv::reconcile(report, "shard rungs", before, after, &counts);
    let deltas: Vec<f64> = shard_ops_before
        .iter()
        .zip(&shard_ops_after)
        .map(|(b, a)| (a - b) as f64)
        .collect();
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    l.ops_max_over_mean = deltas.iter().copied().fold(0.0, f64::max) / mean;
    l.shard_ops = after.ops - before.ops;
    l.shard_sheds = after.sheds - before.sheds;
    l.committed = after.committed - before.committed;

    for (name, r) in [
        ("route", &l.route),
        ("fast_path", &l.fast_path),
        ("renaming", &l.renaming),
        ("assignment", &l.assignment),
        ("with", &l.with),
        ("try_with", &l.try_with),
        ("object get", &l.object_get),
        ("object put", &l.object_put),
        ("journal", &l.journal),
        ("shard get", &l.shard_get),
        ("shard put", &l.shard_put),
    ] {
        report.check(r.wrong() == 0, || {
            format!("{name} rung: {} wrong answers", r.wrong())
        });
        report.attempted += r.calls();
        report.failed += r.wrong();
        println!(
            "  rung {name:<12} T=1 {:>8.2} ns  T=2 {:>8.2} ns  scaling {:>5.2}  calls {}",
            r.t1.ns,
            r.t2.ns,
            r.scaling(),
            r.calls()
        );
    }
    l
}

/// The bare wait-free queue, without the wrapper.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueueRung {
    pub enqueue_ns: f64,
    pub dequeue_ns: f64,
    /// Last-tenth over first-tenth op time.
    pub cost_growth: f64,
    pub bytes_per_op: f64,
}

impl QueueRung {
    pub fn op_ns(&self) -> f64 {
        (self.enqueue_ns + self.dequeue_ns) / 2.0
    }
}

/// One episode of `spec` on a bare `WfQueue`, thread `t` using name `t`.
pub fn queue_rung(spec: &QueueSpec, values: &[Vec<u64>], report: &mut Report) -> QueueRung {
    let mut lanes = Lane::new(spec, values, false);
    let q = WfQueue::<u64>::new(spec.k);
    let ep = queue::episode(spec, &mut lanes, |lane, t, v| match v {
        Some(v) => q.enqueue(t, v),
        None => lane.dequeued(q.dequeue(t)),
    });
    let drained: Vec<u64> = std::iter::from_fn(|| q.dequeue(0)).collect();
    drop(q);
    queue::check_episode(report, "bare queue", spec, &lanes, drained);
    report.attempted += ep.ops;
    report.failed += lanes.iter().map(|l| l.empty).sum::<u64>();
    let per_thread_half = (spec.ops_per_thread / 2) as f64 * lanes.len() as f64;
    QueueRung {
        enqueue_ns: lanes.iter().map(|l| l.enqueue_ns).sum::<u64>() as f64 / per_thread_half,
        dequeue_ns: lanes.iter().map(|l| l.dequeue_ns).sum::<u64>() as f64 / per_thread_half,
        cost_growth: lanes
            .iter()
            .map(|l| l.decile_ns[1] as f64 / l.decile_ns[0].max(1) as f64)
            .sum::<f64>()
            / lanes.len() as f64,
        bytes_per_op: ep.heap_growth as f64 / ep.ops as f64,
    }
}

/// Cost of one `Instant::now`, from batches of reads.
pub fn timer_ns() -> f64 {
    const READS: usize = 1024;
    let mut hist = LatencyHist::new();
    for _ in 0..256 {
        let t0 = Instant::now();
        for _ in 0..READS {
            black_box(Instant::now());
        }
        hist.record(t0.elapsed().as_nanos() as u64);
    }
    quantile(&hist, 0.5) / READS as f64
}
