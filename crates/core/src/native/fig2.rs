//! Native Figure-2 stages and the Theorem-1 chain, over real atomics,
//! for cache-coherent hardware (i.e., any modern multicore).
//!
//! See [`crate::sim::fig2`] for the statement-level rendition and proofs
//! coverage; this module is the same algorithm expressed with
//! `AtomicIsize`/`AtomicUsize` and cache-line padding. Each stage's `X`
//! and `Q` live on their own cache lines so spinning on `Q` does not
//! false-share with the `X` traffic.

use kex_util::sync::atomic::{AtomicIsize, AtomicUsize};

use kex_util::{Backoff, CachePadded};

use super::ordering as ord;
use super::raw::RawKex;

/// One Figure-2 stage: admits `j` of the at-most-`j+1` processes its
/// caller lets through.
#[derive(Debug)]
pub(crate) struct CcStage {
    /// Slot counter, initially `j`.
    x: CachePadded<AtomicIsize>,
    /// Spin word holding a process id (`n` = "nobody", used initially).
    q: CachePadded<AtomicUsize>,
}

impl CcStage {
    pub(crate) fn new(j: usize, n: usize) -> Self {
        CcStage {
            x: CachePadded::new(AtomicIsize::new(j as isize)),
            // Initial Q value: the paper uses process 0; any value works
            // because releases just overwrite it. We use `n` ("nobody")
            // so no process can spuriously self-block on a fresh stage.
            q: CachePadded::new(AtomicUsize::new(n)),
        }
    }

    /// Statements 2–5 of Figure 2.
    pub(crate) fn acquire(&self, p: usize) {
        if self.x.fetch_sub(1, ord::SEQ_CST) <= 0 {
            // No slot: advertise ourselves as the waiter...
            self.q.store(p, ord::SEQ_CST);
            // ...re-check (a release may have raced us)...
            if self.x.load(ord::SEQ_CST) < 0 {
                // ...and spin until *anyone* writes Q (a releaser at
                // statement 7 or a newer waiter at statement 3). Both
                // wake stores are SeqCst (hence also releases); the
                // acquire pairing hands the waker's history — and,
                // through the X RMW chain, every earlier releaser's
                // critical section — to the woken process.
                let backoff = Backoff::new();
                while self.q.load(ord::ACQUIRE) == p {
                    backoff.snooze();
                }
            }
        }
    }

    /// Statements 6–7 of Figure 2.
    pub(crate) fn release(&self, p: usize) {
        self.x.fetch_add(1, ord::SEQ_CST);
        // Writing our own id both differs from any waiter's id and marks
        // the stage released.
        self.q.store(p, ord::SEQ_CST);
    }

    /// Statement 2 as footnote 2's range-safe decrement, at its `SeqCst`:
    /// takes a slot only while `X > 0`, so `p` never becomes a waiter.
    pub(crate) fn try_acquire(&self) -> bool {
        self.x
            .fetch_update(ord::SEQ_CST, ord::SEQ_CST, |v| (v > 0).then_some(v - 1))
            .is_ok()
    }

    /// [`CcStage::try_acquire`]'s test without the decrement: is `X > 0`?
    pub(crate) fn has_free_slot(&self) -> bool {
        self.x.load(ord::SEQ_CST) > 0
    }
}

/// Theorem 1's inductive chain: `(N, k)`-exclusion as Figure-2 stages
/// `j = N-1 .. k`, acquired top (widest) first.
///
/// Worst-case RMR cost is `7(N-k)` (linear in `N`); prefer
/// [`crate::native::TreeKex`] or [`crate::native::FastPathKex`] unless
/// `N - k` is small. This type is both the paper's baseline construction
/// and the `(2k, k)` building block of the better ones.
///
/// ```rust
/// use kex_core::native::{CcChainKex, RawKex};
///
/// // 4 threads, at most 2 in the protected section at once.
/// let kex = CcChainKex::new(4, 2);
/// let guard = kex.enter(0);
/// assert_eq!(guard.pid(), 0);
/// drop(guard); // releases the slot
/// ```
#[derive(Debug)]
pub struct CcChainKex {
    stages: Vec<CcStage>,
    n: usize,
    k: usize,
}

impl CcChainKex {
    /// Build the `(n, k)` chain.
    ///
    /// # Panics
    /// Panics unless `1 <= k < n`.
    pub fn new(n: usize, k: usize) -> Self {
        Self::with_universe(n, n, k)
    }

    /// Build an `(m, k)` chain used as a *building block* inside a larger
    /// composition: at most `m` of the `universe` processes contend in it
    /// at a time (e.g. `m = 2k` blocks in a tree), but process ids range
    /// over `0..universe`.
    ///
    /// # Panics
    /// Panics unless `1 <= k < m <= universe`.
    pub fn with_universe(universe: usize, m: usize, k: usize) -> Self {
        assert!(
            k >= 1 && k < m && m <= universe,
            "CcChainKex requires 1 <= k < m <= universe"
        );
        // stages[i] admits j = m-1-i; acquire walks i = 0 .. len-1,
        // finishing at the stage that admits exactly k.
        let stages = (k..m).rev().map(|j| CcStage::new(j, universe)).collect();
        CcChainKex {
            stages,
            n: universe,
            k,
        }
    }
}

impl RawKex for CcChainKex {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn acquire(&self, p: usize) {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        for stage in &self.stages {
            stage.acquire(p);
        }
    }

    fn release(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Exit, p);
        for stage in self.stages.iter().rev() {
            stage.release(p);
        }
    }

    fn try_acquire(&self, p: usize) -> bool {
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        let taken = self.stages.iter().take_while(|s| s.try_acquire()).count();
        // A refusal gives back the stages taken, bottom-up, as an exit.
        let admitted = taken == self.stages.len();
        if !admitted {
            self.stages[..taken].iter().rev().for_each(|s| s.release(p));
        }
        admitted
    }

    fn has_free_slot(&self) -> bool {
        self.stages.iter().all(CcStage::has_free_slot)
    }

    #[cfg(test)]
    fn slot_counters(&self) -> Vec<isize> {
        self.stages.iter().map(|s| s.x.load(ord::SEQ_CST)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::testutil::{
        assert_probe_matches_try, assert_refusal_leaks_nothing, occupancy_stress, OccupancyReport,
    };
    use kex_util::sync::atomic::Ordering::SeqCst;

    #[test]
    fn never_more_than_k_inside() {
        for (n, k) in [(2, 1), (4, 2), (8, 3)] {
            let kex = CcChainKex::new(n, k);
            let report: OccupancyReport = occupancy_stress(&kex, 400);
            assert!(
                report.max_seen <= k,
                "(n={n},k={k}): {} threads inside at once",
                report.max_seen
            );
            assert_eq!(report.total_entries, n as u64 * 400);
        }
    }

    #[test]
    fn slots_actually_admit_k_concurrently() {
        // The algorithm must not degrade to mutual exclusion: k holders
        // must be able to rendezvous inside.
        use std::time::Duration;
        let kex = CcChainKex::new(6, 3);
        let seen = crate::native::testutil::max_concurrency(&kex, 3, Duration::from_secs(2));
        assert_eq!(seen, 3, "k slots should be usable");
    }

    #[test]
    fn refused_try_releases_the_stages_it_took() {
        // (5, 2): with two holders a try takes stages 4 and 3, is
        // refused by stage 2, and must give both back.
        let kex = std::sync::Arc::new(CcChainKex::new(5, 2));
        assert_refusal_leaks_nothing(std::sync::Arc::clone(&kex));
        let xs: Vec<isize> = kex.stages.iter().map(|s| s.x.load(SeqCst)).collect();
        assert_eq!(xs, [4, 3, 2], "every stage's X is back at its j");
    }

    #[test]
    fn probe_answers_like_a_try_and_writes_nothing() {
        assert_probe_matches_try(|| CcChainKex::new(5, 2));
        assert_probe_matches_try(|| CcChainKex::new(3, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_pid() {
        let kex = CcChainKex::new(2, 1);
        kex.acquire(2);
    }
}
