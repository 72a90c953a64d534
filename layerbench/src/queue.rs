//! Queue episodes: `THREADS` threads each alternate enqueue and dequeue
//! for a fixed op count on one fresh queue, then the dequeued values are
//! checked against the enqueued ones.

use std::sync::Barrier;
use std::time::Instant;

use kex_bench::contend::LatencyHist;

use crate::alloc;
use crate::report::Report;
use crate::trace::{OpSpans, SpanTree};
use crate::workload::{QueueSpec, THREADS};

pub const QUEUE_TREE: SpanTree = SpanTree {
    names: ["op", "core.resilient.with", "waitfree.queue"],
    parent: [None, Some(0), Some(1)],
};

/// One thread's inputs and results for one episode. Every buffer is
/// allocated before the episode, so the heap figures see only the queue.
#[derive(Debug, Clone)]
pub struct Lane {
    pub values: Vec<u64>,
    pub dequeued: Vec<u64>,
    pub empty: u64,
    pub all: LatencyHist,
    pub write: LatencyHist,
    pub enqueue_ns: u64,
    pub dequeue_ns: u64,
    /// Time of the first and of the last tenth of the ops.
    pub decile_ns: [u64; 2],
    pub elapsed_ns: u64,
    pub spans: Vec<OpSpans>,
}

impl Lane {
    /// Fresh lanes for `values`; `traced` reserves a span per op.
    pub fn new(spec: &QueueSpec, values: &[Vec<u64>], traced: bool) -> Vec<Lane> {
        values
            .iter()
            .map(|v| Lane {
                values: v.clone(),
                dequeued: Vec::with_capacity(spec.ops_per_thread / 2 + 1),
                empty: 0,
                all: LatencyHist::new(),
                write: LatencyHist::new(),
                enqueue_ns: 0,
                dequeue_ns: 0,
                decile_ns: [0; 2],
                elapsed_ns: 0,
                spans: Vec::with_capacity(if traced { spec.ops_per_thread } else { 0 }),
            })
            .collect()
    }

    /// Records a dequeue's answer.
    pub fn dequeued(&mut self, got: Option<u64>) {
        match got {
            Some(v) => self.dequeued.push(v),
            None => self.empty += 1,
        }
    }
}

/// What an episode measured across threads.
#[derive(Debug, Clone, Copy)]
pub struct Episode {
    pub ops: u64,
    /// Sum over threads of each thread's ops over its own time.
    pub ops_per_s: f64,
    /// Heap growth while the ops ran.
    pub heap_growth: isize,
}

/// Runs one episode. `step(lane, thread, value)` performs op `i` of
/// `thread`: an enqueue of `Some(value)` or a dequeue on `None`, whose
/// answer it hands to [`Lane::dequeued`]. Each op is timed on its own:
/// an op costs microseconds, far above one clock read.
pub fn episode(
    spec: &QueueSpec,
    lanes: &mut [Lane],
    step: impl Fn(&mut Lane, usize, Option<u64>) + Sync,
) -> Episode {
    let ops = spec.ops_per_thread;
    let barrier = Barrier::new(THREADS);
    let heap = std::sync::atomic::AtomicIsize::new(0);
    std::thread::scope(|s| {
        for (t, lane) in lanes.iter_mut().enumerate() {
            let (barrier, heap, step) = (&barrier, &heap, &step);
            s.spawn(move || {
                barrier.wait();
                let heap_before = alloc::live() as isize;
                let start = Instant::now();
                let mut prev = start;
                let mut last_decile = 0;
                for i in 0..ops {
                    let enqueue = i % 2 == 0;
                    step(lane, t, enqueue.then(|| lane.values[i / 2]));
                    let now = Instant::now();
                    let ns = now.duration_since(prev).as_nanos() as u64;
                    lane.all.record(ns);
                    if enqueue {
                        lane.write.record(ns);
                        lane.enqueue_ns += ns;
                    } else {
                        lane.dequeue_ns += ns;
                    }
                    prev = now;
                    let at = now.duration_since(start).as_nanos() as u64;
                    if i + 1 == ops / 10 {
                        lane.decile_ns[0] = at;
                    } else if i + 1 == ops - ops / 10 {
                        last_decile = at;
                    }
                }
                lane.elapsed_ns = prev.duration_since(start).as_nanos() as u64;
                lane.decile_ns[1] = lane.elapsed_ns - last_decile;
                barrier.wait();
                if t == 0 {
                    heap.store(
                        alloc::live() as isize - heap_before,
                        std::sync::atomic::Ordering::Relaxed,
                    );
                }
            });
        }
    });
    Episode {
        ops: (ops * lanes.len()) as u64,
        ops_per_s: lanes
            .iter()
            .map(|l| ops as f64 * 1e9 / l.elapsed_ns.max(1) as f64)
            .sum(),
        heap_growth: heap.into_inner(),
    }
}

/// The dequeued values plus `drained` (what was left in the queue) must
/// be exactly the enqueued multiset, and no dequeue may find the queue
/// empty: each thread enqueues before it dequeues, so the queue always
/// holds one of its values.
pub fn check_episode(
    report: &mut Report,
    what: &str,
    spec: &QueueSpec,
    lanes: &[Lane],
    drained: Vec<u64>,
) {
    let enqueued_per_thread = spec.ops_per_thread.div_ceil(2);
    let mut expected: Vec<u64> = lanes
        .iter()
        .flat_map(|l| l.values[..enqueued_per_thread].iter().copied())
        .collect();
    let mut got: Vec<u64> = lanes
        .iter()
        .flat_map(|l| l.dequeued.iter().copied())
        .chain(drained)
        .collect();
    expected.sort_unstable();
    got.sort_unstable();
    report.check(expected == got, || {
        format!(
            "{what}: dequeued {} values, enqueued {}, or the multisets differ",
            got.len(),
            expected.len()
        )
    });
    let empty: u64 = lanes.iter().map(|l| l.empty).sum();
    report.check(empty == 0, || {
        format!("{what}: {empty} dequeues found the queue empty")
    });
}

/// Resets `lanes` for another episode on the same values.
pub fn reset(lanes: &mut [Lane]) {
    for l in lanes {
        l.dequeued.clear();
        l.spans.clear();
        l.empty = 0;
        l.all = LatencyHist::new();
        l.write = LatencyHist::new();
        l.enqueue_ns = 0;
        l.dequeue_ns = 0;
        l.decile_ns = [0; 2];
        l.elapsed_ns = 0;
    }
}
