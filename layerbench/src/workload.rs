//! The workloads and their seeded inputs.
//!
//! Every input is generated from the command-line seed before anything
//! is timed; the stacks under test only ever see the generated arrays.

use kex_bench::store_load::{ThreadRngs, ZipfSampler};
use kex_store::{shard_of, StoreConfig};

/// Closed-loop callers: one per core of the 2-vCPU reference host.
pub const THREADS: usize = 2;

/// A key/value workload on `KvStore`.
#[derive(Debug, Clone, Copy)]
pub struct KvSpec {
    pub shards: usize,
    /// Per-shard process universe: `max(THREADS, k + 1)`, plus `k` ids
    /// for the crashed holders when the workload crashes.
    pub n: usize,
    pub k: usize,
    /// Keys `0..keys`, all written before timing.
    pub keys: usize,
    /// Zipf exponent over the keys; 0 is uniform.
    pub zipf_s: f64,
    /// Percentage of ops that write.
    pub write_pct: u64,
    /// Drive the shedding `try_get`/`try_put` surface instead of the
    /// blocking one.
    pub nonblocking: bool,
    /// Slots per shard object.
    pub capacity: usize,
    /// Crash one holder inside every shard and `k` inside shard 0, so
    /// shard 0 refuses everything and the others keep `k - 1` slots.
    pub crash: bool,
}

/// Zipf(0.99) over 4096 cache-resident keys, 95% blocking gets: the
/// admission path dominates a read. S = 64 keeps the hot shard from
/// swinging the median between runs.
pub const KV_READ: KvSpec = KvSpec {
    shards: 64,
    n: 5,
    k: 4,
    keys: 4096,
    zipf_s: 0.99,
    write_pct: 5,
    nonblocking: false,
    capacity: 256,
    crash: false,
};

/// Uniform keys over a 4 MB table (8 shards of 64 Ki 8-byte slots,
/// larger than L2), half `try_put`, half `try_get`, with crashed holders
/// everywhere and one fully crashed shard: writes, the journal, crashed
/// names and lanes, the `try_*` gate and shedding all sit on the path.
pub const KV_CRASH: KvSpec = KvSpec {
    shards: 8,
    n: 7,
    k: 3,
    keys: 65_536,
    zipf_s: 0.0,
    write_pct: 50,
    nonblocking: true,
    capacity: 65_536,
    crash: true,
};

/// The store layers measured as a control on wf-queue, which bypasses
/// the store: one shard at the queue's `k`.
pub const QUEUE_CONTROL_STORE: KvSpec = KvSpec {
    shards: 1,
    n: 3,
    k: 2,
    keys: 1024,
    zipf_s: 0.0,
    write_pct: 50,
    nonblocking: false,
    capacity: 2048,
    crash: false,
};

/// A queue workload on `Resilient<WfQueue<u64>>`.
#[derive(Debug, Clone, Copy)]
pub struct QueueSpec {
    /// Process universe, `max(THREADS, k + 1)`.
    pub n: usize,
    pub k: usize,
    /// Ops per thread in one episode, alternating enqueue and dequeue.
    /// Part of the workload: an op's cost grows with the history.
    pub ops_per_thread: usize,
}

pub const WF_QUEUE: QueueSpec = QueueSpec {
    n: 3,
    k: 2,
    ops_per_thread: 15_000,
};

/// The bare queue measured as a control on the key/value workloads.
pub fn queue_control(k: usize) -> QueueSpec {
    QueueSpec {
        n: THREADS.max(k + 1),
        k,
        ops_per_thread: 2_000,
    }
}

/// The store configuration a spec runs on.
pub fn store_config(spec: &KvSpec) -> StoreConfig {
    let mut cfg = StoreConfig::new(spec.shards, spec.n, spec.k);
    cfg.capacity = spec.capacity;
    cfg
}

/// Crashed holders injected into `shard`.
pub fn crashes_in(spec: &KvSpec, shard: usize) -> usize {
    match (spec.crash, shard) {
        (false, _) => 0,
        (true, 0) => spec.k,
        (true, _) => 1,
    }
}

/// The 16-bit tag every stored value carries for its key (bits 16..32).
pub fn tag(key: u64) -> u64 {
    shard_of(key, 0x7461_675F_6B65_7973, 1 << 16) as u64
}

/// One generated key/value op, packed in a word:
/// bit 63 = put, bit 62 = routed to a fully crashed shard (must shed),
/// bits 32..62 = key, bits 0..32 = the value to write (for a get, the
/// key's tag in the same position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u64);

impl Op {
    const PUT: u64 = 1 << 63;
    const DEAD: u64 = 1 << 62;

    pub fn new(put: bool, dead: bool, key: u64, value: u64) -> Op {
        debug_assert!(key < 1 << 30 && value <= u64::from(u32::MAX));
        Op(u64::from(put) << 63 | u64::from(dead) << 62 | key << 32 | value)
    }

    pub fn is_put(self) -> bool {
        self.0 & Self::PUT != 0
    }

    pub fn is_dead(self) -> bool {
        self.0 & Self::DEAD != 0
    }

    pub fn key(self) -> u64 {
        (self.0 >> 32) & ((1 << 30) - 1)
    }

    pub fn value(self) -> u64 {
        self.0 & u64::from(u32::MAX)
    }

    /// Does a read of this op's key returning `got` carry the key's tag?
    pub fn tag_matches(self, got: u64) -> bool {
        got >> 16 == self.value() >> 16
    }
}

/// `len` ops per thread for `spec` (`len` a power of two, so replay can
/// wrap with a mask).
pub fn kv_ops(spec: &KvSpec, seed: u64, len: usize) -> Vec<Vec<Op>> {
    assert!(len.is_power_of_two());
    let zipf = ZipfSampler::new(spec.keys, spec.zipf_s);
    let route_seed = store_config(spec).seed;
    let rngs = ThreadRngs::new(THREADS, seed);
    (0..THREADS)
        .map(|t| {
            (0..len)
                .map(|i| {
                    let key = zipf.sample(rngs.uniform(t));
                    let put = rngs.next(t) % 100 < spec.write_pct;
                    let dead = spec.crash && shard_of(key, route_seed, spec.shards) == 0;
                    let seq = if put {
                        (t << 15 | (i & 0x7FFF)) as u64
                    } else {
                        0
                    };
                    Op::new(put, dead, key, tag(key) << 16 | seq)
                })
                .collect()
        })
        .collect()
}

/// The values each thread enqueues in one episode of `spec`: seeded high
/// half, `(thread, index)` low half, so every value is unique.
pub fn queue_values(spec: &QueueSpec, seed: u64) -> Vec<Vec<u64>> {
    let rngs = ThreadRngs::new(THREADS, seed);
    (0..THREADS)
        .map(|t| {
            (0..spec.ops_per_thread.div_ceil(2))
                .map(|i| rngs.next(t) & !0xFFFF_FFFF | (t as u64) << 24 | i as u64)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for spec in [KV_READ, KV_CRASH] {
            assert_eq!(kv_ops(&spec, 7, 4096), kv_ops(&spec, 7, 4096));
            assert_ne!(kv_ops(&spec, 7, 4096), kv_ops(&spec, 8, 4096));
        }
        assert_eq!(queue_values(&WF_QUEUE, 7), queue_values(&WF_QUEUE, 7));
        assert_ne!(queue_values(&WF_QUEUE, 7), queue_values(&WF_QUEUE, 8));
    }

    #[test]
    fn ops_round_trip_and_carry_their_key_tag() {
        for op in kv_ops(&KV_CRASH, 3, 1024).concat() {
            assert!(op.key() < KV_CRASH.keys as u64);
            assert_eq!(op.value() >> 16, tag(op.key()));
            let route = shard_of(op.key(), store_config(&KV_CRASH).seed, KV_CRASH.shards);
            assert_eq!(op.is_dead(), route == 0);
        }
        let ops = kv_ops(&KV_READ, 3, 1 << 14).concat();
        let puts = ops.iter().filter(|o| o.is_put()).count() as f64;
        assert!((0.03..0.07).contains(&(puts / ops.len() as f64)));
        assert!(ops.iter().all(|o| !o.is_dead()));
    }

    #[test]
    fn queue_values_are_unique() {
        let mut all = queue_values(&WF_QUEUE, 1).concat();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
