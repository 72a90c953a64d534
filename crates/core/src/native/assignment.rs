//! Native `(N, k)`-assignment: k-exclusion + Figure-7 renaming
//! (Theorems 9 and 10), with an RAII name guard.

use super::fast_path::FastPathKex;
use super::raw::RawKex;
use super::renaming::TasRenaming;

/// The k-assignment wrapper: admits at most `k` processes and hands each
/// a unique name in `0..k` for the duration of its stay.
///
/// This is the paper's resiliency mechanism: put a wait-free `k`-process
/// object behind a `KAssignment` and the composite tolerates `k-1`
/// undetected crash failures (see [`crate::native::Resilient`]).
///
/// ```rust
/// use kex_core::native::KAssignment;
///
/// let pool = KAssignment::new(16, 4); // 16 threads share 4 names
/// let guard = pool.enter(3);
/// assert!(guard.name() < 4); // unique among current holders
/// ```
pub struct KAssignment {
    kex: Box<dyn RawKex>,
    names: TasRenaming,
}

impl std::fmt::Debug for KAssignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KAssignment")
            .field("n", &self.kex.n())
            .field("k", &self.kex.k())
            .finish()
    }
}

impl KAssignment {
    /// k-assignment over the Theorem-3 cache-coherent fast-path
    /// k-exclusion (Theorem 9).
    pub fn new(n: usize, k: usize) -> Self {
        Self::over(Box::new(FastPathKex::new(n, k)))
    }

    /// k-assignment over the Theorem-7 DSM fast-path k-exclusion
    /// (Theorem 10).
    pub fn new_dsm(n: usize, k: usize) -> Self {
        Self::over(Box::new(FastPathKex::new_dsm(n, k)))
    }

    /// k-assignment over any `(N, k)`-exclusion algorithm.
    pub fn over(kex: Box<dyn RawKex>) -> Self {
        let k = kex.k();
        KAssignment {
            kex,
            names: TasRenaming::new(k),
        }
    }

    /// The process universe size.
    pub fn n(&self) -> usize {
        self.kex.n()
    }

    /// The admission bound / name-space size.
    pub fn k(&self) -> usize {
        self.kex.k()
    }

    /// Enter: acquires a k-exclusion slot, then a unique name. The guard
    /// releases both (name first, as in Figure 7) on drop.
    pub fn enter(&self, p: usize) -> NameGuard<'_> {
        // One Entry span covering both the k-exclusion acquisition and the
        // renaming loop: the inner kex's own span nests transparently, so
        // the Figure-7 test-and-sets are attributed to this entry section.
        let entry = crate::obs::span(crate::obs::Section::Entry, p);
        self.kex.acquire(p);
        self.take_name(p, entry)
    }

    /// Non-blocking [`KAssignment::enter`]: `None`, without waiting or a
    /// trace, when [`RawKex::try_acquire`] refuses. The name is then
    /// taken as in `enter`: `<= k` holders means a free name.
    pub fn try_enter(&self, p: usize) -> Option<NameGuard<'_>> {
        let entry = crate::obs::span(crate::obs::Section::Entry, p);
        self.kex.try_acquire(p).then(|| self.take_name(p, entry))
    }

    /// Read-only admission probe: would [`KAssignment::try_enter`] be
    /// admitted right now? [`RawKex::has_free_slot`] decides; nothing
    /// is written and nothing enters, so no Entry span opens.
    pub fn has_free_slot(&self) -> bool {
        self.kex.has_free_slot()
    }

    fn take_name(&self, p: usize, entry: crate::obs::SpanGuard) -> NameGuard<'_> {
        let name = self.names.acquire_name();
        drop(entry);
        NameGuard {
            owner: self,
            p,
            name,
            cs: Some(crate::obs::span(crate::obs::Section::Cs, p)),
        }
    }
}

/// Holds one of the `k` slots and its unique name.
#[must_use = "dropping the guard immediately releases the name and slot"]
#[derive(Debug)]
pub struct NameGuard<'a> {
    owner: &'a KAssignment,
    p: usize,
    name: usize,
    /// Critical-section observability span; closed before the releases so
    /// the occupancy gauge never counts an exiting process.
    cs: Option<crate::obs::SpanGuard>,
}

impl NameGuard<'_> {
    /// The unique name in `0..k` held by this guard.
    pub fn name(&self) -> usize {
        self.name
    }

    /// The process id that entered.
    pub fn pid(&self) -> usize {
        self.p
    }
}

impl Drop for NameGuard<'_> {
    fn drop(&mut self) {
        // Close the Cs span first so the occupancy gauge never counts
        // an exiting process. (`= None`, not `drop(..take())`: the
        // disabled-backend guard is a Drop-less ZST and clippy objects
        // to dropping it explicitly.)
        self.cs = None;
        let _obs = crate::obs::span(crate::obs::Section::Exit, self.p);
        // Figure 7 order: release the name (statement 3), then the
        // k-exclusion (statement 4).
        self.owner.names.release_name(self.name);
        self.owner.kex.release(self.p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kex_util::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn names_are_unique_among_concurrent_holders() {
        let assign = KAssignment::new(8, 3);
        let held = Mutex::new(HashSet::new());
        let max_inside = AtomicUsize::new(0);
        let inside = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for p in 0..8 {
                let (assign, held, inside, max_inside) = (&assign, &held, &inside, &max_inside);
                s.spawn(move || {
                    for _ in 0..200 {
                        let guard = assign.enter(p);
                        let now = inside.fetch_add(1, SeqCst) + 1;
                        max_inside.fetch_max(now, SeqCst);
                        {
                            let mut h = held.lock().unwrap();
                            assert!(guard.name() < 3);
                            assert!(
                                h.insert(guard.name()),
                                "duplicate live name {}",
                                guard.name()
                            );
                        }
                        for _ in 0..10 {
                            kex_util::sync::hint::spin_loop();
                        }
                        {
                            let mut h = held.lock().unwrap();
                            h.remove(&guard.name());
                        }
                        inside.fetch_sub(1, SeqCst);
                    }
                });
            }
        });
        assert!(max_inside.load(SeqCst) <= 3);
    }

    #[test]
    fn dsm_variant_behaves_identically() {
        let assign = KAssignment::new_dsm(6, 2);
        let held = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for p in 0..6 {
                let (assign, held) = (&assign, &held);
                s.spawn(move || {
                    for _ in 0..100 {
                        let guard = assign.enter(p);
                        {
                            let mut h = held.lock().unwrap();
                            assert!(h.insert(guard.name()));
                        }
                        {
                            let mut h = held.lock().unwrap();
                            h.remove(&guard.name());
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn guard_exposes_pid_and_name() {
        let assign = KAssignment::new(2, 1);
        let g = assign.enter(1);
        assert_eq!(g.pid(), 1);
        assert_eq!(g.name(), 0);
    }
}
