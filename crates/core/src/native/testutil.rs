//! Shared helpers for native stress tests: occupancy tracking with real
//! threads.

use kex_util::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::raw::RawKex;

/// Result of [`occupancy_stress`].
pub(crate) struct OccupancyReport {
    /// Largest number of threads observed inside simultaneously.
    pub max_seen: usize,
    /// Total completed critical sections.
    pub total_entries: u64,
}

/// Run every process through `cycles` acquire/release pairs with small
/// pseudo-random critical-section work, tracking the maximum concurrent
/// occupancy. The caller asserts `max_seen <= k`.
pub(crate) fn occupancy_stress<K: RawKex>(kex: &K, cycles: u64) -> OccupancyReport {
    let inside = AtomicUsize::new(0);
    let max = AtomicUsize::new(0);
    let total = AtomicU64::new(0);
    std::thread::scope(|s| {
        for p in 0..kex.n() {
            let (inside, max, total) = (&inside, &max, &total);
            s.spawn(move || {
                for i in 0..cycles {
                    kex.acquire(p);
                    let now = inside.fetch_add(1, SeqCst) + 1;
                    max.fetch_max(now, SeqCst);
                    total.fetch_add(1, SeqCst);
                    // Vary the hold time so occupancies overlap.
                    let spin = (p * 7 + i as usize * 13) % 64;
                    for _ in 0..spin {
                        kex_util::sync::hint::spin_loop();
                    }
                    inside.fetch_sub(1, SeqCst);
                    kex.release(p);
                }
            });
        }
    });
    OccupancyReport {
        max_seen: max.load(SeqCst),
        total_entries: total.load(SeqCst),
    }
}

/// Determine the achievable concurrency: every process enters once and
/// holds its slot until `want` threads are inside together (success) or
/// `timeout` elapses. Returns the maximum simultaneous occupancy seen.
///
/// Unlike [`occupancy_stress`] this is not timing-luck dependent: if the
/// algorithm truly admits `want` concurrent holders, they will
/// rendezvous.
pub(crate) fn max_concurrency<K: RawKex>(kex: &K, want: usize, timeout: Duration) -> usize {
    let inside = AtomicUsize::new(0);
    let max = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let deadline = Instant::now() + timeout;
    std::thread::scope(|s| {
        for p in 0..kex.n() {
            let (inside, max, done) = (&inside, &max, &done);
            s.spawn(move || {
                kex.acquire(p);
                let now = inside.fetch_add(1, SeqCst) + 1;
                max.fetch_max(now, SeqCst);
                if now >= want {
                    done.store(true, SeqCst);
                }
                while !done.load(SeqCst) && Instant::now() < deadline {
                    kex_util::sync::hint::spin_loop();
                }
                inside.fetch_sub(1, SeqCst);
                kex.release(p);
            });
        }
    });
    max.load(SeqCst)
}

/// Stress with a subset of processes "crashing" inside their critical
/// sections: the listed pids acquire once and never release (they park on
/// a flag until the survivors finish). Returns the survivors' completed
/// entries; the caller asserts progress.
pub(crate) fn crash_stress<K: RawKex>(kex: &K, crashed: &[usize], cycles: u64) -> u64 {
    let total = AtomicU64::new(0);
    let finished = AtomicUsize::new(0);
    let survivors = kex.n() - crashed.len();
    let crashed_in = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..kex.n() {
            let total = &total;
            let finished = &finished;
            let crashed_in = &crashed_in;
            let is_crashed = crashed.contains(&p);
            s.spawn(move || {
                if is_crashed {
                    kex.acquire(p);
                    crashed_in.fetch_add(1, SeqCst);
                    // Hold the slot until every survivor is done — the
                    // thread has effectively failed inside its CS.
                    while finished.load(SeqCst) < survivors {
                        kex_util::sync::thread::yield_now();
                    }
                    kex.release(p); // only to let the scope join cleanly
                } else {
                    // Give the crashing threads a head start so they are
                    // really inside when the survivors contend.
                    while crashed_in.load(SeqCst) < crashed.len() {
                        kex_util::sync::thread::yield_now();
                    }
                    for _ in 0..cycles {
                        kex.acquire(p);
                        total.fetch_add(1, SeqCst);
                        kex.release(p);
                    }
                    finished.fetch_add(1, SeqCst);
                }
            });
        }
    });
    total.load(SeqCst)
}

/// Checks that a refused [`RawKex::try_acquire`] leaves no trace: with
/// pids `0..k` inside, a try by every other pid is refused, and after
/// the holders leave, `k` blocking holders still enter without waiting
/// and every try is refused again. Finally a try into the empty
/// algorithm is admitted.
pub(crate) fn assert_refusal_leaks_nothing<K: RawKex + 'static>(kex: Arc<K>) {
    let k = kex.k();
    for round in 0..2 {
        hold_without_waiting(&kex, k);
        for p in k..kex.n() {
            assert!(
                !kex.try_acquire(p),
                "round {round}: pid {p} got past {k} holders"
            );
        }
        for p in 0..k {
            kex.release(p);
        }
    }
    assert!(
        kex.try_acquire(k),
        "a try into an empty algorithm was refused"
    );
    kex.release(k);
}

/// Blocking-acquires pids `0..count` on a helper thread. Panics if they
/// are not all held within two seconds, i.e. if an acquisition waited.
fn hold_without_waiting<K: RawKex + 'static>(kex: &Arc<K>, count: usize) {
    let (tx, rx) = std::sync::mpsc::channel();
    let kex = Arc::clone(kex);
    kex_util::sync::thread::spawn(move || {
        for p in 0..count {
            kex.acquire(p);
        }
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(2))
        .expect("a blocking acquisition waited: a refused try leaked a slot");
}
