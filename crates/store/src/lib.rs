//! # kex-store — a sharded resilient-object service layer
//!
//! The paper's methodology makes *one* shared object `(k-1)`-resilient:
//! a wait-free k-process object inside a k-assignment wrapper
//! ([`kex_core::native::Resilient`]). This crate is the next layer up —
//! the first in the repo that serves a *multi-object workload* rather
//! than a single primitive:
//!
//! ```text
//!   key ──seeded hash──▶ shard ──Resilient (n, k)──▶ wait-free object
//!                          │
//!                          └─▶ per-name op lanes (append-only journal)
//! ```
//!
//! * **Routing** ([`shard_of`]): a SplitMix64-style seeded hash assigns each
//!   key to one of a fixed set of shards; deterministic per seed, so
//!   every process and every recovery pass agrees on ownership.
//! * **Admission** ([`Shard`]): each shard owns its own
//!   `Resilient<O>` over the store-wide `(n, k)`, so contention and
//!   crashes in one shard never consume another shard's slots.
//! * **Lanes** ([`LaneJournal`]): the k-assignment *name* doubles as the
//!   index of an append-only per-name operation journal. A crashed
//!   process consumes its name forever, so the lane it leaves behind
//!   attributes exactly the in-flight operation it died in.
//! * **Surface**: small capability traits — [`StoreRead`],
//!   [`StoreWrite`], [`StoreScan`] — with non-blocking `try_*` variants
//!   that shed load (via [`Resilient::try_with`]) when a shard's `k`
//!   slots are all held, instead of spinning behind crashed holders.
//!
//! The shard objects are **k-process** implementations per the paper's
//! contract; [`KvCells`] (an atomic-register open-addressed table) is
//! the stock one. Every atomic in this crate goes through the
//! [`kex_util::sync`] facade and names its ordering through the audited
//! constant in `ordering` (uniformly SeqCst — the service layer makes
//! no relaxation claims; the audited relaxations live in the native
//! layer beneath it).
//!
//! Resilience composition across shards: each shard tolerates
//! `k - 1` crashed holders independently, so the store as a whole
//! serves every key whose shard has a live slot — a crash budget of
//! up to `k - 1` per shard, placed adversarially, in the spirit of the
//! t-resilient composition line in PAPERS.md. The `store` binary in `kex-bench`
//! measures throughput/latency across shard × thread grids and the
//! crash-mix regime (EXPERIMENTS.md E13); `docs/STORE.md` has the
//! architecture tour.
//!
//! [`Resilient::try_with`]: kex_core::native::Resilient::try_with

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod hash;
mod journal;
mod object;
mod ordering;
mod shard;
mod store;
mod traits;

pub use hash::shard_of;
pub use journal::{Entry, LaneJournal, OpKind, OpState};
pub use object::{KvCells, ShardObject, MAX_KEY, MAX_VALUE};
pub use shard::{Shard, ShardStats};
pub use store::{KvStore, Store, StoreConfig};
pub use traits::{PutError, StoreRead, StoreScan, StoreWrite};
