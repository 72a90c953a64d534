//! Cross-crate integration of the native algorithms with real threads:
//! uniform occupancy stress over the whole algorithm family, the process
//! registry, and the resilient-object methodology end to end.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;

use kex::core::native::{
    CcChainKex, DsmChainKex, FastPathKex, GracefulKex, KAssignment, ProcessRegistry, QueueKex,
    RawKex, Resilient, SemaphoreKex, TreeKex,
};
use kex::waitfree::{SlotCounter, Snapshot, WfQueue};

fn all_algorithms(n: usize, k: usize) -> Vec<(&'static str, Box<dyn RawKex>)> {
    vec![
        ("cc-chain", Box::new(CcChainKex::new(n, k))),
        ("dsm-chain", Box::new(DsmChainKex::new(n, k))),
        ("cc-tree", Box::new(TreeKex::cc(n, k))),
        ("dsm-tree", Box::new(TreeKex::dsm(n, k))),
        ("cc-fastpath", Box::new(FastPathKex::new(n, k))),
        ("dsm-fastpath", Box::new(FastPathKex::new_dsm(n, k))),
        ("cc-graceful", Box::new(GracefulKex::new(n, k))),
        ("dsm-graceful", Box::new(GracefulKex::new_dsm(n, k))),
        ("fig1-queue", Box::new(QueueKex::new(n, k))),
        ("semaphore", Box::new(SemaphoreKex::new(n, k))),
    ]
}

fn occupancy_stress(kex: &dyn RawKex, cycles: u64) -> (usize, u64) {
    let inside = AtomicUsize::new(0);
    let max = AtomicUsize::new(0);
    let total = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..kex.n() {
            let (inside, max, total) = (&inside, &max, &total);
            s.spawn(move || {
                for i in 0..cycles {
                    kex.acquire(p);
                    let now = inside.fetch_add(1, SeqCst) + 1;
                    max.fetch_max(now, SeqCst);
                    total.fetch_add(1, SeqCst);
                    for _ in 0..((p + i as usize) % 32) {
                        std::hint::spin_loop();
                    }
                    inside.fetch_sub(1, SeqCst);
                    kex.release(p);
                }
            });
        }
    });
    (max.load(SeqCst), total.load(SeqCst) as u64)
}

#[test]
fn every_native_algorithm_respects_its_bound() {
    for (name, kex) in all_algorithms(10, 3) {
        let (max, total) = occupancy_stress(&*kex, 200);
        assert!(max <= 3, "{name}: {max} threads inside at once");
        assert_eq!(total, 2000, "{name}: lost acquisitions");
    }
}

#[test]
fn every_native_algorithm_works_with_k_equal_one() {
    for (name, kex) in all_algorithms(6, 1) {
        let (max, total) = occupancy_stress(&*kex, 150);
        assert_eq!(max, 1, "{name} must reduce to mutual exclusion");
        assert_eq!(total, 900, "{name}");
    }
}

#[test]
fn registry_feeds_the_algorithms() {
    let registry = ProcessRegistry::new(8);
    let kex = FastPathKex::new(8, 2);
    let inside = AtomicUsize::new(0);
    let max = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let (registry, kex, inside, max) = (registry.clone(), &kex, &inside, &max);
            s.spawn(move || {
                let id = registry.register().expect("id available");
                for _ in 0..200 {
                    let _g = kex.enter(id.get());
                    let now = inside.fetch_add(1, SeqCst) + 1;
                    max.fetch_max(now, SeqCst);
                    inside.fetch_sub(1, SeqCst);
                }
            });
        }
    });
    assert!(max.load(SeqCst) <= 2);
}

#[test]
fn resilient_wait_free_queue_conserves_items() {
    // The paper's methodology with a real wait-free payload: a 3-process
    // wait-free queue (universal construction) made 10-process and
    // 2-resilient by the wrapper.
    let n = 10;
    let k = 3;
    let per = 200u32;
    let q = Resilient::new(n, k, WfQueue::<u32>::new(k));
    let popped: Vec<Vec<u32>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|p| {
                let q = &q;
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..per {
                        q.with(p, |q, name| q.enqueue(name, (p as u32) * 10_000 + i));
                        if let Some(v) = q.with(p, |q, name| q.dequeue(name)) {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut all: Vec<u32> = popped.into_iter().flatten().collect();
    while let Some(v) = q.with(0, |q, name| q.dequeue(name)) {
        all.push(v);
    }
    assert_eq!(all.len(), n * per as usize, "items lost or duplicated");
    let set: HashSet<_> = all.iter().collect();
    assert_eq!(set.len(), all.len(), "duplicates");
}

// The wrapped queue crosses threads with its per-name caches inside.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Resilient<WfQueue<u64>>>();
};

#[test]
fn queue_names_pass_between_threads_and_survive_a_crashed_holder() {
    // Six threads share two names, so each name's cached queue state is
    // resumed by whichever thread holds the name next. Halfway through,
    // one holder crashes inside the object right after an enqueue: its
    // name and that name's cache are never returned, and the survivors
    // finish on the other name alone.
    type Item = (usize, u32);
    let (n, k, per) = (6, 2, 150u32);
    let crasher = n - 1;
    let q = Resilient::new(n, k, WfQueue::<Item>::new(k));
    let crashed = AtomicUsize::new(usize::MAX);
    let after_crash = std::sync::Barrier::new(n);
    let results: Vec<(Vec<Item>, HashSet<usize>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|p| {
                let (q, crashed, after_crash) = (&q, &crashed, &after_crash);
                s.spawn(move || {
                    let mut got = Vec::new();
                    let mut names_after = HashSet::new();
                    for i in 0..2 * per {
                        if i == per {
                            if p == crasher {
                                let guard = q.enter(p);
                                guard.object().enqueue(guard.name(), (p, i));
                                crashed.store(guard.name(), SeqCst);
                                std::mem::forget(guard);
                            }
                            after_crash.wait();
                            if p == crasher {
                                break;
                            }
                        }
                        q.with(p, |q, name| q.enqueue(name, (p, i)));
                        let (v, name) = q.with(p, |q, name| (q.dequeue(name), name));
                        got.extend(v);
                        if i >= per {
                            names_after.insert(name);
                        }
                    }
                    (got, names_after)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let crashed = crashed.load(SeqCst);
    let mut consumers: Vec<Vec<Item>> = Vec::new();
    for (p, (got, names_after)) in results.into_iter().enumerate() {
        if p != crasher {
            let expect: HashSet<usize> = [1 - crashed].into();
            assert_eq!(names_after, expect, "survivor {p} after the crash");
        }
        consumers.push(got);
    }
    consumers.push(std::iter::from_fn(|| q.with(0, |q, name| q.dequeue(name))).collect());

    // Multiset: every enqueued item is dequeued exactly once.
    let mut all: Vec<Item> = consumers.iter().flatten().copied().collect();
    all.sort_unstable();
    let mut expect: Vec<Item> = (0..n)
        .flat_map(|p| (0..if p == crasher { per + 1 } else { 2 * per }).map(move |i| (p, i)))
        .collect();
    expect.sort_unstable();
    assert_eq!(all, expect, "items lost or duplicated");

    // Per-producer FIFO: one consumer's dequeues are in queue order, so
    // each producer's items reach it in increasing order.
    for got in &consumers {
        for p in 0..n {
            let mine: Vec<u32> = got
                .iter()
                .filter(|(from, _)| *from == p)
                .map(|&(_, i)| i)
                .collect();
            assert!(
                mine.windows(2).all(|w| w[0] < w[1]),
                "producer {p} reordered: {mine:?}"
            );
        }
    }
}

#[test]
fn resilient_snapshot_scans_are_coherent() {
    let n = 8;
    let k = 4;
    let snap = Resilient::new(n, k, Snapshot::<u64>::new(k));
    std::thread::scope(|s| {
        for p in 0..n {
            let snap = &snap;
            s.spawn(move || {
                for i in 1..=100u64 {
                    snap.with(p, |obj, name| {
                        obj.update(name, i);
                        let view = obj.scan();
                        assert_eq!(view.len(), k);
                        // Our own register must reflect our write.
                        assert!(view[name] >= i.min(1));
                    });
                }
            });
        }
    });
}

#[test]
fn resilient_counter_under_churning_identities() {
    // Threads come and go, recycling process ids through the registry —
    // the long-lived property in action.
    let registry = ProcessRegistry::new(4);
    let counter = Resilient::new(4, 2, SlotCounter::new(2));
    for _wave in 0..5 {
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (registry, counter) = (registry.clone(), &counter);
                s.spawn(move || {
                    let id = registry.register().expect("wave fits");
                    for _ in 0..500 {
                        counter.with(id.get(), |c, name| c.add(name, 1));
                    }
                });
            }
        });
    }
    assert_eq!(counter.object_unguarded().read(), 5 * 4 * 500);
}

#[test]
fn assignment_names_are_unique_across_algorithm_choices() {
    for kex in [
        Box::new(CcChainKex::new(6, 2)) as Box<dyn RawKex>,
        Box::new(TreeKex::dsm(6, 2)),
        Box::new(GracefulKex::new(6, 2)),
    ] {
        let assign = KAssignment::over(kex);
        let held = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for p in 0..6 {
                let (assign, held) = (&assign, &held);
                s.spawn(move || {
                    for _ in 0..200 {
                        let g = assign.enter(p);
                        assert!(held.lock().unwrap().insert(g.name()), "dup name");
                        std::hint::spin_loop();
                        held.lock().unwrap().remove(&g.name());
                    }
                });
            }
        });
    }
}
