//! Exhaustive / preemption-bounded model checking of the **native**
//! algorithm implementations, driven by the vendored `kex-loom` checker.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p kex-core --test loom_models --release
//! ```
//!
//! Under `cfg(loom)` the `kex_util::sync` facade swaps every atomic,
//! mutex, condvar and spin hint for the model-checked versions, so the
//! exact production code paths are explored. Each test enumerates
//! thread interleavings at a small `(N, k)` and asserts, per the
//! ISSUE-2 matrix:
//!
//! * **(a) at-most-`k`-in-CS** — an occupancy counter incremented inside
//!   every critical section never exceeds `k`;
//! * **(b) unique names in `0..k`** — renaming/assignment paths record
//!   held names in a claim table and fail on any duplicate;
//! * **(c) no lost wakeups** — the checker reports a deadlock whenever a
//!   spinner or condvar waiter can never be woken again, so every
//!   passing model doubles as a lost-wakeup proof for its spin and
//!   handshake loops;
//! * **(d) crash-in-CS safety** — a designated process acquires and then
//!   stops taking steps while still inside its critical section (the
//!   paper's failure model); the survivors must still satisfy (a)–(c)
//!   and terminate, i.e. the block really is `(k-1)`-resilient.
//!
//! Tiny 2-thread models run exhaustively; 3-thread models use a CHESS
//! preemption bound (2–4), which the `LOOM_MAX_PREEMPTIONS` env var
//! overrides globally (the CI `loom` job pins it).
//!
//! The `broken_gate_*` test keeps the suite honest: it injects the
//! classic ordering bug — Figure 2's atomic `fetch_sub` admission gate
//! split into a non-atomic load/store pair — and asserts the checker
//! *finds* the resulting k-exclusion violation.

#![cfg(loom)]

use std::sync::Arc;

use kex_core::native::{
    CcChainKex, DsmChainKex, FastPathKex, GracefulKex, KAssignment, McsLock, ProcessRegistry,
    QueueKex, RawKex, Resilient, SemaphoreKex, TasRenaming, TreeKex, YangAndersonLock,
};
use kex_loom::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering::SeqCst};
use kex_loom::{thread, Builder};

/// Explore every schedule of `pids` running `cycles` acquire/release
/// pairs against a fresh instance from `make`, asserting at-most-`k`
/// occupancy. Pids listed in `crashed` acquire once, increment the
/// occupancy counter, and then stop taking steps *inside* the critical
/// section — the paper's crash model. Deadlocks (including stuck
/// spinners and lost wakeups among the survivors) fail the test via the
/// checker itself.
fn check_occupancy<K>(
    name: &'static str,
    builder: Builder,
    make: fn() -> K,
    pids: &'static [usize],
    crashed: &'static [usize],
    cycles: usize,
) where
    K: RawKex + Send + Sync + 'static,
{
    let stats = builder.check(move || {
        let kex = Arc::new(make());
        let k = kex.k();
        let inside = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = pids
            .iter()
            .map(|&p| {
                let kex = Arc::clone(&kex);
                let inside = Arc::clone(&inside);
                let dies = crashed.contains(&p);
                thread::spawn(move || {
                    if dies {
                        kex.acquire(p);
                        let now = inside.fetch_add(1, SeqCst) + 1;
                        assert!(now <= k, "k-exclusion violated: {now} > k={k}");
                        // Crash: never decrement, never release — the
                        // slot stays occupied forever.
                    } else {
                        for _ in 0..cycles {
                            kex.acquire(p);
                            let now = inside.fetch_add(1, SeqCst) + 1;
                            assert!(now <= k, "k-exclusion violated: {now} > k={k}");
                            inside.fetch_sub(1, SeqCst);
                            kex.release(p);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    eprintln!(
        "{name}: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

// --- (a) at-most-k safety -------------------------------------------------

#[test]
fn fig2_cc_chain_n2_k1_exhaustive() {
    check_occupancy(
        "fig2 (2,1)",
        Builder::new(),
        || CcChainKex::new(2, 1),
        &[0, 1],
        &[],
        1,
    );
}

#[test]
fn fig2_cc_chain_n3_k2() {
    check_occupancy(
        "fig2 (3,2)",
        Builder::new().max_preemptions(3),
        || CcChainKex::new(3, 2),
        &[0, 1, 2],
        &[],
        1,
    );
}

#[test]
fn fig6_dsm_chain_n2_k1() {
    check_occupancy(
        "fig6 (2,1)",
        Builder::new().max_preemptions(3),
        || DsmChainKex::new(2, 1),
        &[0, 1],
        &[],
        1,
    );
}

#[test]
fn tree_two_levels_n3_k1() {
    // n=3, k=1 composes two levels of Figure-2 blocks — the smallest
    // genuinely hierarchical instance.
    check_occupancy(
        "tree cc (3,1)",
        Builder::new().max_preemptions(2),
        || TreeKex::cc(3, 1),
        &[0, 1, 2],
        &[],
        1,
    );
}

#[test]
fn fast_path_n3_k1() {
    // n > 2k, so the fast-path/slow-path split and the `slow_flag`
    // arbitration are actually exercised.
    check_occupancy(
        "fast path (3,1)",
        Builder::new().max_preemptions(2),
        || FastPathKex::new(3, 1),
        &[0, 1, 2],
        &[],
        1,
    );
}

#[test]
fn graceful_n3_k1() {
    check_occupancy(
        "graceful (3,1)",
        Builder::new().max_preemptions(2),
        || GracefulKex::new(3, 1),
        &[0, 1, 2],
        &[],
        1,
    );
}

#[test]
fn queue_kex_n3_k2() {
    // Figure 1 baseline: facade Mutex + per-process spin flags — checks
    // the mutex hand-off and the wakeup of dequeued waiters.
    check_occupancy(
        "fig1 queue (3,2)",
        Builder::new().max_preemptions(2),
        || QueueKex::new(3, 2),
        &[0, 1, 2],
        &[],
        1,
    );
}

#[test]
fn semaphore_n3_k2() {
    // Condvar-based baseline: a lost `notify` would park a waiter
    // forever and surface as a model deadlock.
    check_occupancy(
        "semaphore (3,2)",
        Builder::new().max_preemptions(2),
        || SemaphoreKex::new(3, 2),
        &[0, 1, 2],
        &[],
        1,
    );
}

#[test]
fn mcs_lock_two_threads() {
    check_occupancy(
        "mcs (2)",
        Builder::new().max_preemptions(4),
        || McsLock::new(2),
        &[0, 1],
        &[],
        1,
    );
}

#[test]
fn yang_anderson_two_threads() {
    // Read/write-only arbitration: the interesting interleavings flip
    // the tie-breaker `t` between the two contenders' reads.
    check_occupancy(
        "yang-anderson (2)",
        Builder::new().max_preemptions(4),
        || YangAndersonLock::new(2),
        &[0, 1],
        &[],
        1,
    );
}

// --- (d) crash-in-CS safety ----------------------------------------------

#[test]
fn fig2_crash_in_cs_n3_k2() {
    // Process 0 halts inside its critical section; with k = 2 the block
    // is 1-resilient, so processes 1 and 2 must still cycle through the
    // remaining slot without ever exceeding k or deadlocking.
    check_occupancy(
        "fig2 crash (3,2)",
        Builder::new().max_preemptions(2),
        || CcChainKex::new(3, 2),
        &[0, 1, 2],
        &[0],
        1,
    );
}

#[test]
fn fig6_crash_in_cs_n3_k2() {
    check_occupancy(
        "fig6 crash (3,2)",
        Builder::new().max_preemptions(2),
        || DsmChainKex::new(3, 2),
        &[0, 1, 2],
        &[0],
        1,
    );
}

#[test]
fn fast_path_crash_in_cs_n3_k2() {
    check_occupancy(
        "fast path crash (3,2)",
        Builder::new().max_preemptions(2),
        || FastPathKex::new(3, 2),
        &[0, 1, 2],
        &[0],
        1,
    );
}

// --- (b) unique names in 0..k --------------------------------------------

#[test]
fn tas_renaming_two_concurrent() {
    // Two concurrent processes over k = 2 names, two acquisitions each
    // (long-lived renaming: names are re-acquired after release). Names
    // must stay in 0..2 and never be held twice at once. Exhaustive
    // exploration takes ~1.3M executions; a 4-preemption bound keeps the
    // same bug-finding power at a fraction of the cost.
    let stats = Builder::new().max_preemptions(4).check(|| {
        let r = Arc::new(TasRenaming::new(2));
        let held: Arc<Vec<AtomicBool>> = Arc::new((0..2).map(|_| AtomicBool::new(false)).collect());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let r = Arc::clone(&r);
                let held = Arc::clone(&held);
                thread::spawn(move || {
                    for _ in 0..2 {
                        let name = r.acquire_name();
                        assert!(name < 2, "name {name} out of 0..2");
                        assert!(!held[name].swap(true, SeqCst), "duplicate name {name}");
                        held[name].store(false, SeqCst);
                        r.release_name(name);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    eprintln!(
        "tas renaming (2 names): {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

#[test]
fn k_assignment_n3_k2_unique_names() {
    // Three processes funnel through a (3,2)-exclusion block and then
    // claim one of 2 names each — the ISSUE's "renaming with 3
    // processes over 2 names" configuration.
    let stats = Builder::new().max_preemptions(2).check(|| {
        let a = Arc::new(KAssignment::new(3, 2));
        let held: Arc<Vec<AtomicBool>> = Arc::new((0..2).map(|_| AtomicBool::new(false)).collect());
        let handles: Vec<_> = (0..3)
            .map(|p| {
                let a = Arc::clone(&a);
                let held = Arc::clone(&held);
                thread::spawn(move || {
                    let g = a.enter(p);
                    let name = g.name();
                    assert!(name < 2, "name {name} out of 0..2");
                    assert!(!held[name].swap(true, SeqCst), "duplicate name {name}");
                    held[name].store(false, SeqCst);
                    drop(g);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    eprintln!(
        "k-assignment (3,2): {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

#[test]
fn k_assignment_crash_n3_k2_keeps_names_unique() {
    // Process 0 crashes while *holding* slot and name: the name must
    // stay permanently claimed, and the two survivors must keep cycling
    // with distinct names from what remains.
    let stats = Builder::new().max_preemptions(2).check(|| {
        let a = Arc::new(KAssignment::new(3, 2));
        let held: Arc<Vec<AtomicBool>> = Arc::new((0..2).map(|_| AtomicBool::new(false)).collect());
        let handles: Vec<_> = (0..3)
            .map(|p| {
                let a = Arc::clone(&a);
                let held = Arc::clone(&held);
                thread::spawn(move || {
                    if p == 0 {
                        let g = a.enter(p);
                        let name = g.name();
                        assert!(!held[name].swap(true, SeqCst), "duplicate name {name}");
                        // Crash while holding: the guard never drops, so
                        // neither slot nor name is ever released.
                        std::mem::forget(g);
                    } else {
                        let g = a.enter(p);
                        let name = g.name();
                        assert!(name < 2, "name {name} out of 0..2");
                        assert!(!held[name].swap(true, SeqCst), "duplicate name {name}");
                        held[name].store(false, SeqCst);
                        drop(g);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    eprintln!(
        "k-assignment crash (3,2): {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

#[test]
fn registry_assigns_distinct_pids() {
    let stats = Builder::new().check(|| {
        let reg = Arc::new(ProcessRegistry::new(2));
        let claimed: Arc<Vec<AtomicBool>> =
            Arc::new((0..2).map(|_| AtomicBool::new(false)).collect());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let claimed = Arc::clone(&claimed);
                thread::spawn(move || {
                    let id = reg.register().expect("a slot must be free");
                    assert!(
                        !claimed[id.get()].swap(true, SeqCst),
                        "pid {} handed out twice",
                        id.get()
                    );
                    claimed[id.get()].store(false, SeqCst);
                    drop(id);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    eprintln!(
        "registry (2): {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

// --- resilient-object wrapper --------------------------------------------

#[test]
fn resilient_counter_n3_k2() {
    // The §1 methodology end-to-end: three processes bump a shared
    // counter through `Resilient::with`; every increment must land.
    let stats = Builder::new().max_preemptions(2).check(|| {
        let obj = Arc::new(Resilient::new(3, 2, AtomicUsize::new(0)));
        let handles: Vec<_> = (0..3)
            .map(|p| {
                let obj = Arc::clone(&obj);
                thread::spawn(move || {
                    obj.with(p, |counter, name| {
                        assert!(name < 2, "name {name} out of 0..2");
                        counter.fetch_add(1, SeqCst);
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(obj.object_unguarded().load(SeqCst), 3, "lost increment");
    });
    eprintln!(
        "resilient counter (3,2): {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

/// The per-name claim table and occupancy counter a [`Resilient`]
/// model wraps: every admitted process checks at-most-`k` and claims
/// its name exclusively for the length of its stay.
struct Claims {
    inside: AtomicUsize,
    held: Vec<AtomicBool>,
}

impl Claims {
    fn visit(&self, name: usize, k: usize) {
        let now = self.inside.fetch_add(1, SeqCst) + 1;
        assert!(now <= k, "k-exclusion violated: {now} > k={k}");
        assert!(name < k, "name {name} out of 0..{k}");
        assert!(!self.held[name].swap(true, SeqCst), "duplicate name {name}");
        self.held[name].store(false, SeqCst);
        self.inside.fetch_sub(1, SeqCst);
    }
}

/// `try_enter` racing blocking `enter`s on `Resilient::new(3, k, ..)`:
/// pids 0 and 2 enter blocking, pid 1 tries once. A refused try must
/// leave no trace, so the blocking entrants always finish (a leaked
/// slot is a deadlock the checker reports) and a final try from the
/// main thread, once everyone has left, is admitted.
fn check_try_enter_races_enter(name: &'static str, k: usize) {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let claims = Claims {
            inside: AtomicUsize::new(0),
            held: (0..k).map(|_| AtomicBool::new(false)).collect(),
        };
        let r = Arc::new(Resilient::new(3, k, claims));
        let handles: Vec<_> = (0..3)
            .map(|p| {
                let r = Arc::clone(&r);
                thread::spawn(move || {
                    if p == 1 {
                        if let Some(g) = r.try_enter(p) {
                            g.object().visit(g.name(), k);
                        }
                    } else {
                        r.with(p, |claims, name| claims.visit(name, k));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            r.try_with(1, |_, _| ()).is_some(),
            "a refused try leaked a slot"
        );
    });
    eprintln!(
        "{name}: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

#[test]
fn resilient_try_enter_races_enter_split_n3_k1() {
    // n = 3 > 2k: the try grabs the fast-path `X`, then the (2, 1)
    // block, and puts `X` back if a slow-path holder has the block.
    check_try_enter_races_enter("resilient try/enter split (3,1)", 1);
}

#[test]
fn resilient_try_enter_races_enter_single_n3_k2() {
    // n = 3 <= 2k: the try takes the (3, 2) chain's stages top-down and
    // releases them if one refuses.
    check_try_enter_races_enter("resilient try/enter single (3,2)", 2);
}

/// The read-only probe racing crashes on `Resilient::new(3, k, ())`:
/// pids `0..k` enter and crash in the critical section (forgotten
/// guards) while pid `k` probes, tries once, and probes again. Crashed
/// holders only ever take slots, so every counter the probe reads only
/// falls while the prober is between its own operations: a refusal from
/// either the probe or the try must be repeated by everything after it.
/// A probe that refused while a try would be admitted, or that saw a
/// slot the preceding try could not take, fails the model. Once all `k`
/// have crashed, the probe is `false` and a try is refused in every
/// schedule.
fn check_probe_races_crashes(name: &'static str, k: usize) {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let r = Arc::new(Resilient::new(3, k, ()));
        let crashers: Vec<_> = (0..k)
            .map(|p| {
                let r = Arc::clone(&r);
                thread::spawn(move || std::mem::forget(r.enter(p)))
            })
            .collect();
        let prober = {
            let r = Arc::clone(&r);
            thread::spawn(move || {
                let before = r.has_free_slot();
                let admitted = r.try_enter(k).is_some();
                let after = r.has_free_slot();
                assert!(before || !admitted, "the probe refused, then a try got in");
                assert!(
                    admitted || !after,
                    "a try was refused, then the probe saw a slot"
                );
            })
        };
        for h in crashers.into_iter().chain([prober]) {
            h.join().unwrap();
        }
        assert!(!r.has_free_slot(), "k crashed holders, yet a free slot");
        assert!(r.try_enter(k).is_none());
    });
    eprintln!(
        "{name}: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

#[test]
fn resilient_probe_races_crashes_split_n3_k1() {
    // n = 3 > 2k: the probe reads the fast-path `X`, then the block's.
    check_probe_races_crashes("resilient probe/crash split (3,1)", 1);
}

#[test]
fn resilient_probe_races_crashes_single_n3_k2() {
    // n = 3 <= 2k: the probe reads every stage of the (3, 2) chain.
    check_probe_races_crashes("resilient probe/crash single (3,2)", 2);
}

// --- observability is inert under loom ------------------------------------

/// Under `cfg(loom)` the `kex_core::obs` shim must be a zero-sized
/// no-op, whatever cargo features are enabled: spans may never add
/// schedule points or the model-checking results would stop covering
/// the uninstrumented production build. We run the same (2,1) chain
/// model twice — bare, and drowning in redundant span annotations —
/// and require bit-identical exploration statistics.
#[test]
fn obs_spans_do_not_perturb_schedules() {
    fn explore(annotate: bool) -> kex_loom::Stats {
        Builder::new().check(move || {
            let kex = Arc::new(CcChainKex::new(2, 1));
            let inside = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..2)
                .map(|p| {
                    let kex = Arc::clone(&kex);
                    let inside = Arc::clone(&inside);
                    thread::spawn(move || {
                        let outer =
                            annotate.then(|| kex_core::obs::span(kex_core::obs::Section::Other, p));
                        kex.acquire(p);
                        let cs =
                            annotate.then(|| kex_core::obs::span(kex_core::obs::Section::Cs, p));
                        let now = inside.fetch_add(1, SeqCst) + 1;
                        assert!(now <= 1, "k-exclusion violated: {now} > k=1");
                        inside.fetch_sub(1, SeqCst);
                        drop(cs);
                        kex.release(p);
                        drop(outer);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        })
    }

    let bare = explore(false);
    let annotated = explore(true);
    assert_eq!(
        bare.executions, annotated.executions,
        "span annotations changed the number of explored interleavings"
    );
    assert_eq!(
        bare.schedule_points, annotated.schedule_points,
        "span annotations introduced schedule points"
    );
    eprintln!(
        "obs inertness: {} executions, {} schedule points, identical with and without spans",
        bare.executions, bare.schedule_points
    );
}

// --- relaxed-ordering sites: multi-cycle models ---------------------------
//
// `native::ordering` weakens selected hot-path sites from SeqCst to
// acquire/release/relaxed (see `docs/MEMORY_ORDERING.md`). The vendored
// checker explores sequentially-consistent interleavings whatever
// `Ordering` argument the code passes, so these models cannot detect a
// *wrong ordering* directly — that is TSan's job (CI runs the contend
// smoke under `-Z sanitizer=thread`). What they do pin down is the
// *algorithmic* claim each relaxation leans on, across the state reuse
// that only shows up after a release: every model below runs two full
// acquire→release cycles per process, so each relaxed site is exercised
// in its "stale value from the previous cycle" regime.

#[test]
fn fig2_two_cycles_spin_sees_second_wakeup() {
    // Relaxed site: the `Q == p` spin load is ACQUIRE. Its soundness
    // argument needs *every* wake store (release-side and newer-waiter
    // side) to reach the spinner — including a second wakeup of the same
    // process after it already cycled once.
    check_occupancy(
        "fig2 2-cycle (2,1)",
        Builder::new().max_preemptions(3),
        || CcChainKex::new(2, 1),
        &[0, 1],
        &[],
        2,
    );
}

#[test]
fn fig6_two_cycles_last_cursor_advances() {
    // Relaxed sites: `mine.last` load/store are RELAXED (owner-private
    // cursor) and the `p[next]` spin is ACQUIRE. Two cycles make the
    // cursor actually advance through the wheel, so a stale `last`
    // read would hand the process a spin location nobody will set.
    check_occupancy(
        "fig6 2-cycle (2,1)",
        Builder::new().max_preemptions(3),
        || DsmChainKex::new(2, 1),
        &[0, 1],
        &[],
        2,
    );
}

#[test]
fn mcs_two_cycles_node_reuse() {
    // Relaxed sites: `next.store(NIL, RELAXED)` on enqueue, AcqRel tail
    // swap, RELEASE/ACQUIRE locked-flag handoff. Node reuse is the
    // classic MCS hazard: cycle 2 re-enqueues the same node cycle 1
    // just released, so a predecessor still holding a stale `next`
    // pointer would corrupt the queue.
    check_occupancy(
        "mcs 2-cycle (2)",
        Builder::new().max_preemptions(4),
        || McsLock::new(2),
        &[0, 1],
        &[],
        2,
    );
}

#[test]
fn fast_path_two_cycles_slow_flag_round_trip() {
    // Relaxed sites: the X credit counter RMWs are ACQ_REL (same-location
    // chain) and `slow_flag` is RELAXED (arbitration is advisory; safety
    // rests on X). Two cycles drive a process through set-then-clear of
    // its slow flag with the other process mid-protocol.
    check_occupancy(
        "fast path 2-cycle (3,1)",
        Builder::new().max_preemptions(2),
        || FastPathKex::new(3, 1),
        &[0, 1, 2],
        &[],
        2,
    );
}

#[test]
fn fig1_two_cycles_waiting_flag_reuse() {
    // Relaxed sites: a process's own `waiting` flag is stored RELAXED
    // (ordered by the enclosing mutex), spun on with ACQUIRE, and
    // cleared by the releaser with RELEASE. Cycle 2 re-arms the same
    // flag the releaser just cleared.
    check_occupancy(
        "fig1 2-cycle (3,2)",
        Builder::new().max_preemptions(2),
        || QueueKex::new(3, 2),
        &[0, 1, 2],
        &[],
        2,
    );
}

#[test]
fn yang_anderson_two_cycles() {
    // Relaxed sites: only the two `p[..]` spin loads are ACQUIRE; the
    // three-variable Dekker handshake stays SEQ_CST. Two cycles make
    // each contender pass through both roles of the arbitration.
    check_occupancy(
        "yang-anderson 2-cycle (2)",
        Builder::new().max_preemptions(4),
        || YangAndersonLock::new(2),
        &[0, 1],
        &[],
        2,
    );
}

#[test]
fn graceful_two_cycles_depth_cursor() {
    // Relaxed site: `depth[p]` is an owner-private RELAXED cursor
    // recording which level the process stopped at; release must read
    // back the value acquire wrote one cycle earlier.
    check_occupancy(
        "graceful 2-cycle (2,1)",
        Builder::new().max_preemptions(3),
        || GracefulKex::new(2, 1),
        &[0, 1],
        &[],
        2,
    );
}

// The renaming swap/clear pair (ACQ_REL `bit.swap`, RELEASE clear) is
// already exercised across reuse by `tas_renaming_two_concurrent`
// above: each process acquires a name twice, so cycle 2 re-swaps bits
// cycle 1 released.

// --- checker power: the injected Figure-2 ordering bug --------------------

/// Figure 2's admission gate with the atomic `fetch_sub` deliberately
/// split into a load/store pair — the exact bug a relaxed or non-RMW
/// "optimization" of the gate would introduce. Two processes can both
/// read `X = 1` and both admit themselves.
struct BrokenGate {
    x: AtomicIsize,
    q: AtomicUsize,
}

impl BrokenGate {
    fn new(k: isize) -> Self {
        BrokenGate {
            x: AtomicIsize::new(k),
            q: AtomicUsize::new(usize::MAX),
        }
    }

    fn acquire(&self, p: usize) {
        // BUG: non-atomic read-modify-write of the admission counter.
        let v = self.x.load(SeqCst);
        self.x.store(v - 1, SeqCst);
        if v <= 0 {
            self.q.store(p, SeqCst);
            while self.q.load(SeqCst) == p && self.x.load(SeqCst) < 0 {
                kex_loom::hint::spin_loop();
            }
        }
    }

    fn release(&self, p: usize) {
        self.x.fetch_add(1, SeqCst);
        self.q.store(p, SeqCst);
    }
}

#[test]
fn broken_gate_violation_is_caught() {
    let msg = kex_loom::check_expecting_failure(|| {
        let gate = Arc::new(BrokenGate::new(1));
        let inside = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|p| {
                let gate = Arc::clone(&gate);
                let inside = Arc::clone(&inside);
                thread::spawn(move || {
                    gate.acquire(p);
                    let now = inside.fetch_add(1, SeqCst) + 1;
                    assert!(now <= 1, "k-exclusion violated: {now} > k=1");
                    inside.fetch_sub(1, SeqCst);
                    gate.release(p);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(
        msg.contains("k-exclusion violated") || msg.contains("deadlock"),
        "checker reported an unrelated failure: {msg}"
    );
}
