//! # kex-bench — the experiment harness
//!
//! Regenerates every table and theorem-bound curve of the paper's
//! evaluation (see the repository's `EXPERIMENTS.md` for the index and
//! recorded results):
//!
//! * `cargo run --release -p kex-bench --bin table1` — Table 1
//!   (E1/E8): measured worst-case RMRs per algorithm, with and without
//!   contention, under each algorithm's memory model.
//! * `cargo run --release -p kex-bench --bin bounds -- <thm|all>` —
//!   Theorems 1–10 (E2–E6): parameter sweeps, measured vs. formula.
//! * `cargo run --release -p kex-bench --bin resilience` — E7: failure
//!   injection, survivors' progress at `f = 0 .. k` crashes.
//! * `cargo run --release -p kex-bench --bin contend` — E9 + E12:
//!   native wall-clock throughput, latency percentiles and fairness per
//!   algorithm and payload object, uncontended (`T = 1`) through
//!   oversubscribed, all at one universe `N`; build with `--features
//!   seqcst` and pass that run back via `--baseline` to record the
//!   memory-ordering relaxation delta (the committed
//!   `BENCH_contend.json`).
//! * `cargo run --release -p kex-bench --features obs --bin native_obs`
//!   — E11: instrumented remote-reference estimates against the
//!   theorem bounds (`BENCH_native.json`).
//! * `cargo run --release -p kex-bench --bin store` — E13: the sharded
//!   store's Zipfian grid and crash mix (`BENCH_store.json`).
//!
//! This library crate holds the shared measurement machinery.

#![warn(missing_docs)]

pub mod contend;
pub mod harness;
pub mod report;
pub mod store_load;

pub use harness::{measure, Measurement, Workload};
pub use report::JsonSink;
