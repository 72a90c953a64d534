//! The native k-exclusion interface: [`RawKex`] and its RAII guard.
//!
//! Native implementations run over the `kex_util::sync::atomic` facade
//! (std atomics normally, loom model-checked atomics under `cfg(loom)`)
//! with the audited orderings of the private `ordering` module:
//! acquire/release/relaxed where a site-local pairing argument proves
//! them sufficient, `SeqCst` where the paper's sequentially consistent
//! reasoning genuinely spans variables. `--features seqcst` collapses
//! every site back to `SeqCst` for A/B benchmarking (the simulator
//! versions in [`crate::sim`] are the reference semantics; see DESIGN.md
//! and `docs/MEMORY_ORDERING.md` for the site-by-site audit).
//!
//! Every algorithm is parameterized by a fixed process universe `0..N`:
//! callers hand each thread a distinct process id (see
//! [`crate::native::registry::ProcessRegistry`] for a convenient way to
//! do that). Passing the same id to two concurrently running threads is
//! a logic error and voids every guarantee.

/// A k-exclusion algorithm over processes `0..n()`.
///
/// At most [`RawKex::k`] processes can be between [`RawKex::acquire`] and
/// [`RawKex::release`] at any time. If at most `k - 1` participating
/// processes fail (stop for ever) outside their noncritical sections,
/// every other process's `acquire` and `release` complete in a bounded
/// number of its own steps.
pub trait RawKex: Send + Sync {
    /// The process universe size `N`.
    fn n(&self) -> usize;

    /// The exclusion bound `k`.
    fn k(&self) -> usize;

    /// Enter: blocks (spinning) until one of the `k` slots is held.
    ///
    /// # Panics
    /// Implementations may panic if `p >= self.n()`.
    fn acquire(&self, p: usize);

    /// Leave: releases the slot taken by the matching [`RawKex::acquire`].
    ///
    /// Must only be called by the process that currently holds a slot.
    fn release(&self, p: usize);

    /// Non-blocking enter: takes a slot only if that needs no waiting.
    /// `true` must be matched by a [`RawKex::release`]; `false` leaves
    /// no trace. The default always refuses, which is sound because a
    /// shedding caller must never be admitted when it would have to
    /// wait. `CcChainKex` and `FastPathKex::new` override it with
    /// footnote 2's range-safe decrement (and [`RawKex::has_free_slot`]
    /// with its read-only twin); the tree, graceful, DSM (hence
    /// `FastPathKex::new_dsm`) and baseline algorithms do not.
    fn try_acquire(&self, _p: usize) -> bool {
        false
    }

    /// Read-only admission probe: would [`RawKex::try_acquire`] succeed
    /// right now? It reads the same footnote-2 counters and writes
    /// nothing, for callers that need only the shed signal, not a slot.
    /// The default answers `false`, matching `try_acquire`'s default
    /// refusal; `CcChainKex` and `FastPathKex::new` override both.
    fn has_free_slot(&self) -> bool {
        false
    }

    /// Every slot counter, in a fixed order, so tests can check that a
    /// probe leaves them all unchanged. Empty for algorithms without
    /// footnote-2 counters.
    #[cfg(test)]
    fn slot_counters(&self) -> Vec<isize> {
        Vec::new()
    }

    /// RAII-style entry: acquires and returns a guard that releases on
    /// drop.
    fn enter(&self, p: usize) -> KexGuard<'_>
    where
        Self: Sized,
    {
        self.acquire(p);
        KexGuard {
            kex: self,
            p,
            cs: Some(crate::obs::span(crate::obs::Section::Cs, p)),
        }
    }
}

/// Releases the underlying [`RawKex`] slot when dropped.
#[must_use = "dropping the guard immediately releases the slot"]
#[derive(Debug)]
pub struct KexGuard<'a> {
    kex: &'a dyn RawKexObject,
    p: usize,
    /// Critical-section observability span; closed just before release
    /// so the occupancy gauge never counts an exiting process.
    cs: Option<crate::obs::SpanGuard>,
}

impl KexGuard<'_> {
    /// The process id that holds this slot.
    pub fn pid(&self) -> usize {
        self.p
    }
}

impl Drop for KexGuard<'_> {
    fn drop(&mut self) {
        self.cs = None;
        self.kex.release(self.p);
    }
}

/// Object-safe subset of [`RawKex`] used by the guard.
trait RawKexObject: Send + Sync {
    fn release(&self, p: usize);
}

impl std::fmt::Debug for dyn RawKexObject + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RawKex")
    }
}

impl<K: RawKex> RawKexObject for K {
    fn release(&self, p: usize) {
        RawKex::release(self, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // Facade types, not `std::sync::atomic`: the literal `Ordering::SeqCst`
    // arguments below are fine under the ordering-policy lint, which exempts
    // `#[cfg(test)]` code (test scaffolding is not an audited hot path).
    use kex_util::sync::atomic::{AtomicUsize, Ordering};

    struct CountingKex {
        inside: AtomicUsize,
        released: AtomicUsize,
    }

    impl RawKex for CountingKex {
        fn n(&self) -> usize {
            4
        }
        fn k(&self) -> usize {
            4
        }
        fn acquire(&self, _p: usize) {
            self.inside.fetch_add(1, Ordering::SeqCst);
        }
        fn release(&self, _p: usize) {
            self.released.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn guard_releases_on_drop() {
        let kex = CountingKex {
            inside: AtomicUsize::new(0),
            released: AtomicUsize::new(0),
        };
        {
            let g = kex.enter(2);
            assert_eq!(g.pid(), 2);
            assert_eq!(kex.inside.load(Ordering::SeqCst), 1);
            assert_eq!(kex.released.load(Ordering::SeqCst), 0);
        }
        assert_eq!(kex.released.load(Ordering::SeqCst), 1);
    }
}
