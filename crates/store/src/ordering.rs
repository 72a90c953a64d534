//! Named ordering constants for the store layer.
//!
//! Mirrors `kex_core::native::ordering` and `kex-waitfree`'s module of
//! the same name: every non-test atomic access in this crate names its
//! ordering through a constant defined here instead of spelling a
//! literal `Ordering::*`, so the kex-lint ordering-policy pass can
//! audit the crate the same way it audits the native hot paths. The
//! store's shared cells — packed key/value slots raced by up to `k`
//! admitted writers, journal lane heads read cross-process for crash
//! attribution — follow the wait-free layer's policy: SeqCst, with no
//! per-site relaxation argument attempted. The store is a *service*
//! layer; its cost is dominated by the k-assignment wrappers underneath,
//! whose orderings are the audited ones.
//!
//! The one exception is [`COUNT`], the bump of a shard's per-process
//! monitoring counters, which `--features seqcst` also collapses to
//! SeqCst.

use kex_util::sync::atomic::Ordering;

/// The ordering of every shared cell in the store layer.
pub(crate) const SEQ_CST: Ordering = Ordering::SeqCst;

/// The load + store that bumps a shard's per-process read and shed
/// counters. Each counter has one writer (the process whose id indexes
/// it, one thread at a time by the store's `p` contract), it guards no
/// other data, and no reader infers anything from it beyond its own
/// value: `Shard::stats` reads it with [`SEQ_CST`] as a monitoring
/// figure. Coherence alone keeps the single writer's increments in
/// order, so `Relaxed` loses nothing.
#[cfg(not(feature = "seqcst"))]
pub(crate) const COUNT: Ordering = Ordering::Relaxed;
/// `--features seqcst`: collapsed to `SeqCst`.
#[cfg(feature = "seqcst")]
pub(crate) const COUNT: Ordering = Ordering::SeqCst;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqcst_feature_collapses_count() {
        if cfg!(feature = "seqcst") {
            assert_eq!(COUNT, Ordering::SeqCst);
        } else {
            assert_eq!(COUNT, Ordering::Relaxed);
        }
        assert_eq!(SEQ_CST, Ordering::SeqCst);
    }
}
