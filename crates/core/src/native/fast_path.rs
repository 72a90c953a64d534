//! Native Figure-4 fast path (Theorems 3/7) and the gracefully
//! degrading nested variant (Theorems 4/8).

use kex_util::sync::atomic::{AtomicIsize, AtomicUsize};

use kex_util::CachePadded;

use super::fig2::CcChainKex;
use super::fig6::DsmChainKex;
use super::ordering as ord;
use super::raw::RawKex;
use super::tree::{NativeBlockFactory, TreeKex};

/// Range-safe `fetch_and_increment(X, -1)` per the paper's footnote 2:
/// decrements only if positive; returns whether a slot was obtained.
/// The slot accounting is same-location arithmetic on `X` alone, so the
/// AcqRel RMW chain suffices: each successful grab takes the hand-off
/// edge from every `fetch_add` release that precedes it in `X`'s
/// modification order (and the admitted process still passes through a
/// `(2k, k)` block, which provides its own synchronization).
#[inline]
fn try_grab(x: &AtomicIsize) -> bool {
    x.fetch_update(ord::ACQ_REL, ord::ACQUIRE, |v| {
        if v > 0 {
            Some(v - 1)
        } else {
            None
        }
    })
    .is_ok()
}

/// Returns a [`try_grab`] slot, handing our critical section on.
#[inline]
fn put_back(x: &AtomicIsize) {
    x.fetch_add(1, ord::ACQ_REL);
}

/// Figure 4 over a tree slow path — Theorems 3 and 7.
///
/// With contention at most `k`, an acquisition costs one fetch-and-add
/// pair plus an uncontended pass through a single `(2k, k)` block —
/// `O(k)` remote references independent of `N`. Once contention exceeds
/// `k`, overflow processes take the `(N, k)` tree (`O(k log(N/k))`).
/// This is the variant to reach for by default.
///
/// ```rust
/// use kex_core::native::{FastPathKex, RawKex};
///
/// let kex = FastPathKex::new(64, 4); // 64 threads, 4 slots
/// kex.acquire(9);
/// // ... protected section, at most 4 threads here ...
/// kex.release(9);
/// ```
pub struct FastPathKex {
    inner: FastPathInner,
    n: usize,
    k: usize,
}

#[allow(clippy::large_enum_variant)] // one long-lived allocation per lock
enum FastPathInner {
    /// `n <= 2k`: a single block is the whole algorithm.
    Single(Box<dyn RawKex>),
    Split {
        /// Fast-path slot counter, `0..=k`, initially `k`.
        x: CachePadded<AtomicIsize>,
        /// The `(N, k)` slow path.
        slow: TreeKex,
        /// The final `(2k, k)` block.
        block: Box<dyn RawKex>,
        /// Per-process "took the slow path" flags (each private to its
        /// owner; atomics only to keep the structure `Sync`).
        slow_flag: Vec<CachePadded<AtomicUsize>>,
    },
}

impl std::fmt::Debug for FastPathKex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastPathKex")
            .field("n", &self.n)
            .field("k", &self.k)
            .finish()
    }
}

impl FastPathKex {
    /// Cache-coherent variant (Figure-2 blocks) — Theorem 3.
    pub fn new(n: usize, k: usize) -> Self {
        Self::with_factory(n, k, &|u, m, k| {
            Box::new(CcChainKex::with_universe(u, m, k))
        })
    }

    /// DSM variant (Figure-6 blocks) — Theorem 7.
    pub fn new_dsm(n: usize, k: usize) -> Self {
        Self::with_factory(n, k, &|u, m, k| {
            Box::new(DsmChainKex::with_universe(u, m, k))
        })
    }

    /// Fast path over blocks from an arbitrary factory.
    ///
    /// # Panics
    /// Panics unless `1 <= k < n`.
    pub fn with_factory(n: usize, k: usize, factory: &NativeBlockFactory) -> Self {
        assert!(k >= 1 && k < n, "FastPathKex requires 1 <= k < n");
        let inner = if n <= 2 * k {
            FastPathInner::Single(factory(n, n, k))
        } else {
            FastPathInner::Split {
                x: CachePadded::new(AtomicIsize::new(k as isize)),
                slow: TreeKex::with_factory(n, k, factory),
                block: factory(n, 2 * k, k),
                slow_flag: (0..n)
                    .map(|owner| {
                        let flag = CachePadded::new(AtomicUsize::new(0));
                        kex_util::sync::assign_home(&*flag, owner);
                        flag
                    })
                    .collect(),
            }
        };
        FastPathKex { inner, n, k }
    }
}

impl RawKex for FastPathKex {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn acquire(&self, p: usize) {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        match &self.inner {
            FastPathInner::Single(b) => b.acquire(p),
            FastPathInner::Split {
                x,
                slow,
                block,
                slow_flag,
            } => {
                // Statements 1–5 of Figure 4. `slow_flag[p]` is
                // owner-private (atomic only for `Sync`), so Relaxed.
                let slow_path = !try_grab(x);
                slow_flag[p].store(usize::from(slow_path), ord::RELAXED);
                if slow_path {
                    slow.acquire(p);
                }
                block.acquire(p);
            }
        }
    }

    fn release(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Exit, p);
        match &self.inner {
            FastPathInner::Single(b) => b.release(p),
            FastPathInner::Split {
                x,
                slow,
                block,
                slow_flag,
            } => {
                // Statements 6–9 of Figure 4.
                block.release(p);
                if slow_flag[p].load(ord::RELAXED) != 0 {
                    slow.release(p);
                } else {
                    put_back(x);
                }
            }
        }
    }

    /// `Split` grabs `X` first, so the entrant counts among the `<= k`
    /// fast processes and the `(2k, k)` block keeps its population
    /// bound; `X` goes back if the block refuses.
    fn try_acquire(&self, p: usize) -> bool {
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        match &self.inner {
            FastPathInner::Single(b) => b.try_acquire(p),
            FastPathInner::Split {
                x,
                block,
                slow_flag,
                ..
            } => {
                if !try_grab(x) {
                    return false;
                }
                if !block.try_acquire(p) {
                    put_back(x);
                    return false;
                }
                slow_flag[p].store(0, ord::RELAXED);
                true
            }
        }
    }

    /// `try_acquire`'s two tests without the grab: `Split` needs a
    /// fast slot in `X` and a free slot in the block.
    fn has_free_slot(&self) -> bool {
        match &self.inner {
            FastPathInner::Single(b) => b.has_free_slot(),
            FastPathInner::Split { x, block, .. } => {
                x.load(ord::SEQ_CST) > 0 && block.has_free_slot()
            }
        }
    }

    #[cfg(test)]
    fn slot_counters(&self) -> Vec<isize> {
        match &self.inner {
            FastPathInner::Single(b) => b.slot_counters(),
            FastPathInner::Split { x, block, .. } => {
                let mut counters = vec![x.load(ord::SEQ_CST)];
                counters.extend(block.slot_counters());
                counters
            }
        }
    }
}

/// The gracefully degrading construction — Theorems 4 and 8: Figure 4
/// applied recursively, so the cost of an acquisition is proportional to
/// the contention `c` actually encountered (`O(⌈c/k⌉·k)`), not to the
/// worst case.
///
/// Level `i` offers `k` fast slots; a process that finds them taken
/// descends to level `i+1`, down to a plain `(2k, k)`-population chain at
/// the bottom. It then acquires one `(2k, k)` block per visited level on
/// the way back up.
pub struct GracefulKex {
    levels: Vec<GracefulLevel>,
    base: Box<dyn RawKex>,
    /// Per-process descent depth of the current acquisition.
    depth: Vec<CachePadded<AtomicUsize>>,
    n: usize,
    k: usize,
}

struct GracefulLevel {
    x: CachePadded<AtomicIsize>,
    block: Box<dyn RawKex>,
}

impl std::fmt::Debug for GracefulKex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GracefulKex")
            .field("n", &self.n)
            .field("k", &self.k)
            .field("levels", &self.levels.len())
            .finish()
    }
}

impl GracefulKex {
    /// Cache-coherent variant — Theorem 4.
    pub fn new(n: usize, k: usize) -> Self {
        Self::with_factory(n, k, &|u, m, k| {
            Box::new(CcChainKex::with_universe(u, m, k))
        })
    }

    /// DSM variant — Theorem 8.
    pub fn new_dsm(n: usize, k: usize) -> Self {
        Self::with_factory(n, k, &|u, m, k| {
            Box::new(DsmChainKex::with_universe(u, m, k))
        })
    }

    /// Graceful nesting over blocks from an arbitrary factory.
    ///
    /// # Panics
    /// Panics unless `1 <= k < n`.
    pub fn with_factory(n: usize, k: usize, factory: &NativeBlockFactory) -> Self {
        assert!(k >= 1 && k < n, "GracefulKex requires 1 <= k < n");
        let mut levels = Vec::new();
        let mut pop = n;
        while pop > 2 * k {
            levels.push(GracefulLevel {
                x: CachePadded::new(AtomicIsize::new(k as isize)),
                block: factory(n, 2 * k, k),
            });
            pop -= k;
        }
        GracefulKex {
            levels,
            base: factory(n, pop, k),
            depth: (0..n)
                .map(|owner| {
                    let slot = CachePadded::new(AtomicUsize::new(0));
                    kex_util::sync::assign_home(&*slot, owner);
                    slot
                })
                .collect(),
            n,
            k,
        }
    }

    /// Number of fast-path levels (the bottom chain is one more hop).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }
}

impl RawKex for GracefulKex {
    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn acquire(&self, p: usize) {
        assert!(p < self.n, "pid {p} out of range 0..{}", self.n);
        let _obs = crate::obs::span(crate::obs::Section::Entry, p);
        // Descend until a fast slot is grabbed (or the base is reached).
        let mut d = 0;
        while d < self.levels.len() && !try_grab(&self.levels[d].x) {
            d += 1;
        }
        // Owner-private descent cursor (atomic only for `Sync`).
        self.depth[p].store(d, ord::RELAXED);
        if d == self.levels.len() {
            self.base.acquire(p);
        }
        // Unfolding the recursion "entry(i) = [entry(i+1)] ; block_i":
        // acquire the blocks of every visited level, deepest first.
        if !self.levels.is_empty() {
            let top = d.min(self.levels.len() - 1);
            for i in (0..=top).rev() {
                self.levels[i].block.acquire(p);
            }
        }
    }

    fn release(&self, p: usize) {
        let _obs = crate::obs::span(crate::obs::Section::Exit, p);
        let d = self.depth[p].load(ord::RELAXED);
        // Mirror image: "exit(i) = block_i ; [exit(i+1) | X_i += 1]".
        if !self.levels.is_empty() {
            let top = d.min(self.levels.len() - 1);
            for level in &self.levels[..=top] {
                level.block.release(p);
            }
        }
        if d == self.levels.len() {
            self.base.release(p);
        } else {
            put_back(&self.levels[d].x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::testutil::{
        assert_probe_matches_try, assert_refusal_leaks_nothing, crash_stress, max_concurrency,
        occupancy_stress,
    };
    use kex_util::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn refused_try_leaks_nothing_single() {
        assert_refusal_leaks_nothing(Arc::new(FastPathKex::new(4, 2)));
    }

    #[test]
    fn refused_try_leaks_nothing_split() {
        let kex = Arc::new(FastPathKex::new(8, 2));
        assert_refusal_leaks_nothing(Arc::clone(&kex));
        let FastPathInner::Split { x, .. } = &kex.inner else {
            panic!("n = 8 > 2k is the split shape");
        };
        assert_eq!(x.load(SeqCst), 2, "every fast slot is back");
    }

    #[test]
    fn probe_answers_like_a_try_and_writes_nothing() {
        // Single (n <= 2k) forwards to its block; Split (n > 2k) reads X
        // and the block.
        assert_probe_matches_try(|| FastPathKex::new(4, 2));
        assert_probe_matches_try(|| FastPathKex::new(8, 2));
        assert_probe_matches_try(|| FastPathKex::new(5, 1));
    }

    #[test]
    fn kexes_without_try_acquire_never_report_a_free_slot() {
        use crate::native::tree::TreeKex;
        assert!(!TreeKex::cc(8, 2).has_free_slot());
        assert!(!GracefulKex::new(8, 2).has_free_slot());
        assert!(!FastPathKex::new_dsm(8, 2).has_free_slot());
        assert!(!FastPathKex::new_dsm(4, 2).has_free_slot());
    }

    #[test]
    fn split_try_puts_x_back_when_a_slow_holder_fills_the_block() {
        // n = 5, k = 1: A takes the fast slot, B queues on the slow
        // path, A releases, B holds the critical section. Now X = 1 but
        // the block is full, so a try must be refused and return X.
        let kex = FastPathKex::new(5, 1);
        let FastPathInner::Split { x, slow_flag, .. } = &kex.inner else {
            panic!("n = 5 > 2k is the split shape");
        };
        let (b_inside, b_leave) = (AtomicBool::new(false), AtomicBool::new(false));
        kex.acquire(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                kex.acquire(1);
                b_inside.store(true, SeqCst);
                while !b_leave.load(SeqCst) {
                    kex_util::sync::thread::yield_now();
                }
                kex.release(1);
            });
            while slow_flag[1].load(SeqCst) == 0 {
                kex_util::sync::thread::yield_now();
            }
            kex.release(0);
            while !b_inside.load(SeqCst) {
                kex_util::sync::thread::yield_now();
            }
            let x_before = x.load(SeqCst);
            let probed = kex.has_free_slot();
            let admitted = kex.try_acquire(2);
            let x_after = x.load(SeqCst);
            // Let B leave before asserting, so a failure cannot hang.
            b_leave.store(true, SeqCst);
            assert_eq!(x_before, 1, "A returned the fast slot");
            assert!(!probed, "the probe must check the block, not only X");
            assert!(!admitted, "B fills the block");
            assert_eq!(x_after, 1, "the refused try put X back");
        });
        assert!(kex.has_free_slot());
        assert!(kex.try_acquire(2));
        kex.release(2);
        assert_eq!(x.load(SeqCst), 1);
    }

    #[test]
    fn fast_path_never_exceeds_k() {
        for (n, k) in [(4, 2), (8, 2), (12, 3), (16, 4)] {
            let kex = FastPathKex::new(n, k);
            let report = occupancy_stress(&kex, 200);
            assert!(report.max_seen <= k, "(n={n},k={k}): {}", report.max_seen);
            assert_eq!(report.total_entries, n as u64 * 200);
        }
    }

    #[test]
    fn dsm_fast_path_never_exceeds_k() {
        let kex = FastPathKex::new_dsm(12, 3);
        let report = occupancy_stress(&kex, 150);
        assert!(report.max_seen <= 3);
        assert_eq!(report.total_entries, 12 * 150);
    }

    #[test]
    fn fast_path_k_holders_rendezvous() {
        let kex = FastPathKex::new(12, 3);
        assert_eq!(max_concurrency(&kex, 3, Duration::from_secs(2)), 3);
    }

    #[test]
    fn graceful_never_exceeds_k() {
        for (n, k) in [(4, 2), (8, 2), (13, 3)] {
            let kex = GracefulKex::new(n, k);
            let report = occupancy_stress(&kex, 200);
            assert!(report.max_seen <= k, "(n={n},k={k}): {}", report.max_seen);
            assert_eq!(report.total_entries, n as u64 * 200);
        }
    }

    #[test]
    fn graceful_dsm_never_exceeds_k() {
        let kex = GracefulKex::new_dsm(9, 3);
        let report = occupancy_stress(&kex, 150);
        assert!(report.max_seen <= 3);
        assert_eq!(report.total_entries, 9 * 150);
    }

    #[test]
    fn graceful_k_holders_rendezvous() {
        let kex = GracefulKex::new(10, 2);
        assert_eq!(max_concurrency(&kex, 2, Duration::from_secs(2)), 2);
    }

    #[test]
    fn graceful_level_count_matches_population_shrink() {
        assert_eq!(GracefulKex::new(4, 2).level_count(), 0);
        assert_eq!(GracefulKex::new(6, 2).level_count(), 1);
        assert_eq!(GracefulKex::new(8, 2).level_count(), 2);
    }

    #[test]
    fn fast_path_survives_k_minus_1_crashes_in_cs() {
        // Two of k = 3 holders crash inside; the other six threads must
        // keep completing acquisitions through the remaining slot.
        let kex = FastPathKex::new(8, 3);
        let completed = crash_stress(&kex, &[0, 1], 200);
        assert_eq!(completed, 6 * 200);
    }

    #[test]
    fn graceful_survives_k_minus_1_crashes_in_cs() {
        let kex = GracefulKex::new(8, 3);
        let completed = crash_stress(&kex, &[0, 1], 200);
        assert_eq!(completed, 6 * 200);
    }

    #[test]
    fn chain_and_tree_survive_crashes_too() {
        use crate::native::fig2::CcChainKex;
        use crate::native::fig6::DsmChainKex;
        use crate::native::tree::TreeKex;
        let kex = CcChainKex::new(6, 2);
        assert_eq!(crash_stress(&kex, &[3], 150), 5 * 150);
        let kex = DsmChainKex::new(6, 2);
        assert_eq!(crash_stress(&kex, &[3], 150), 5 * 150);
        let kex = TreeKex::cc(8, 2);
        assert_eq!(crash_stress(&kex, &[7], 150), 7 * 150);
    }
}
