//! The store's service surface: small capability traits in the style of
//! wrongodb's page-store decomposition (SNIPPETS.md) — a consumer that
//! only reads depends only on [`StoreRead`], a writer adds
//! [`StoreWrite`], and analytics/recovery tooling takes [`StoreScan`].
//! `Store<O>` implements all three; test doubles and future tiered
//! stores implement whichever subset they mean.
//!
//! Every operation takes the calling process id `p` (in `0..n`, the
//! per-shard universe) because admission and crash accounting are
//! per-process — this is a *paper-shaped* API, not a `&self`-hides-all
//! one. As in the paper, a process is sequential: one id is never used
//! by two threads at once (the k-exclusion algorithms and each shard's
//! per-process counters rely on it). The `try_*` variants shed instead
//! of waiting when taking one of the target shard's `k` slots would
//! mean waiting (slots consumed by crashed processes are never free),
//! via
//! [`Resilient::try_with`](kex_core::native::Resilient::try_with).

/// Why a write did not take effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutError {
    /// The owning shard's object is at capacity for new keys
    /// (overwrites of present keys still succeed).
    ShardFull,
    /// The key or the value is outside the shard object's range (for
    /// [`KvCells`](crate::KvCells), above `MAX_KEY` or `MAX_VALUE`).
    OutOfRange,
}

impl std::fmt::Display for PutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PutError::ShardFull => write!(f, "shard object is full"),
            PutError::OutOfRange => write!(f, "key or value out of range"),
        }
    }
}

impl std::error::Error for PutError {}

/// Read capability.
pub trait StoreRead {
    /// Read `key` as process `p`; `None` when absent. Takes no slot
    /// (shard object reads are name-free; see
    /// [`ShardObject`](crate::ShardObject)), so it never waits, even
    /// while the owning shard's slots are all held.
    fn get(&self, p: usize, key: u64) -> Option<u64>;

    /// Non-blocking [`StoreRead::get`]: always asks for a slot. `None`
    /// means *shed* (the owning shard had no free slot), `Some(inner)`
    /// is the read's answer.
    fn try_get(&self, p: usize, key: u64) -> Option<Option<u64>>;
}

/// Write capability.
pub trait StoreWrite {
    /// Insert or overwrite `key` as process `p`. Blocks while the
    /// owning shard's slots are all held.
    fn put(&self, p: usize, key: u64, value: u64) -> Result<(), PutError>;

    /// Non-blocking [`StoreWrite::put`]: `None` means *shed*,
    /// `Some(result)` is the write's outcome.
    fn try_put(&self, p: usize, key: u64, value: u64) -> Option<Result<(), PutError>>;
}

/// Whole-store iteration capability (monitoring, recovery, analytics).
pub trait StoreScan {
    /// Visit every present pair, shard by shard, as process `p`.
    /// Per-entry atomic; not a consistent cut across shards. Takes no
    /// slot, like [`StoreRead::get`].
    fn for_each(&self, p: usize, f: &mut dyn FnMut(u64, u64));

    /// Approximate number of distinct keys across all shards, without
    /// entering any wrapper (see
    /// [`Resilient::object_unguarded`](kex_core::native::Resilient::object_unguarded)'s
    /// caveat — sound here because it only touches always-safe reads).
    fn len(&self) -> usize;

    /// `len() == 0`, with the same approximation caveat.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
