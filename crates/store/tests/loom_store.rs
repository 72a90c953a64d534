//! Model checking of the store's crash story, driven by the vendored
//! `kex-loom` checker.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p kex-store --test loom_store --release
//! ```
//!
//! Under `cfg(loom)` the `kex_util::sync` facade swaps every atomic the
//! store (and the k-assignment machinery beneath it) touches for the
//! model-checked versions, so the exact production composition —
//! route → k-exclusion → renaming → object → journal — is explored.
//! The headline model has two processes race `StoreWrite::put` on the
//! *same key* while one of them crash-fails inside its critical
//! section. The others pin the non-blocking surface (permanent shedding
//! on a dead shard, and a `try_get` that takes no slot), name-free reads
//! racing writers, and journal reads racing a lane that wraps its ring.

#![cfg(loom)]

use std::sync::Arc;

use kex_loom::{thread, Builder};
use kex_store::{Entry, KvStore, OpState, StoreConfig, StoreRead, StoreWrite};

fn tiny_store() -> KvStore {
    store_with_depth(2)
}

fn store_with_depth(journal_depth: usize) -> KvStore {
    // One shard keeps the model honest (both writers *must* collide on
    // the same wrapper) and small: n = 3, k = 2 — one crash survivable.
    let mut cfg = StoreConfig::new(1, 3, 2);
    cfg.capacity = 4;
    cfg.journal_depth = journal_depth;
    KvStore::new(cfg)
}

const KEY: u64 = 42;

/// Two processes race a put on the same key; process 0 crashes in its
/// critical section mid-put (slot, name, and lane consumed forever).
/// Every schedule must end with: the survivor's put completed, the
/// value intact (one of the two written values — the register may
/// linearize either last), exactly one lane attributing the crash, and
/// the store still answering reads.
#[test]
fn racing_same_key_writes_with_crash_in_cs() {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let store = Arc::new(tiny_store());

        let crasher = Arc::clone(&store);
        let t0 = thread::spawn(move || {
            // Crash-in-CS: journals the op, applies it, dies before
            // commit — the paper's failure model via a leaked guard.
            crasher.crash_in_cs(0, KEY, 100);
        });

        let writer = Arc::clone(&store);
        let t1 = thread::spawn(move || {
            // k = 2: the survivor is admitted even while the crasher
            // holds (and never releases) the other slot.
            writer.put(1, KEY, 200).unwrap();
            let seen = writer.get(1, KEY).unwrap();
            assert!(seen == 100 || seen == 200, "torn or lost value: {seen}");
        });

        t0.join().unwrap();
        t1.join().unwrap();

        // Post-mortem, from a third process (the main thread).
        let value = store.get(2, KEY).unwrap();
        assert!(value == 100 || value == 200, "torn value {value}");

        let stats = store.stats();
        assert_eq!(stats[0].in_flight_lanes, 1, "crash not attributed");
        // The survivor returned its slot: a non-blocking read is admitted.
        assert!(
            store.try_get(2, KEY).is_some(),
            "survivor's slot not returned"
        );

        // The dead lane names exactly the interrupted operation.
        let journal = store.shard(0).journal();
        let dead: Vec<_> = (0..2).filter_map(|name| journal.in_flight(name)).collect();
        assert_eq!(dead.len(), 1);
        assert_eq!((dead[0].key, dead[0].value), (KEY, 100));
        assert_eq!(dead[0].state, OpState::InFlight);

        // And the survivor's lane committed its put.
        let committed: u64 = (0..2).map(|name| journal.committed(name)).sum();
        assert!(committed >= 1, "survivor's commit lost");

        // The crasher never returned its slot: one more crash fills the
        // shard, and every non-blocking op is shed.
        store.crash_in_cs(1, KEY, 300);
        assert_eq!(store.try_get(2, KEY), None, "crashed slot not retained");
    });
    eprintln!(
        "store crash race: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

/// The non-blocking surface under a *fully* dead shard: both slots
/// crash-consumed, so `try_put`/`try_get` must shed (return `None`)
/// on every schedule rather than admit or hang, while a blocking `get`
/// (name-free, so never admitted) still answers.
#[test]
fn try_ops_shed_when_every_slot_is_crash_consumed() {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let store = Arc::new(tiny_store());

        let c0 = Arc::clone(&store);
        let t0 = thread::spawn(move || c0.crash_in_cs(0, KEY, 1));
        let c1 = Arc::clone(&store);
        let t1 = thread::spawn(move || c1.crash_in_cs(1, KEY, 2));
        t0.join().unwrap();
        t1.join().unwrap();

        // k = 2 slots crash-consumed: shedding is permanent.
        assert_eq!(store.try_put(2, KEY, 3), None);
        assert_eq!(store.try_get(2, KEY), None);
        assert_eq!(store.stats()[0].in_flight_lanes, 2);

        // A blocking read needs no name, so it skips admission and
        // answers with a crashed write's value instead of waiting.
        let seen = store.get(2, KEY);
        assert!(
            seen == Some(1) || seen == Some(2),
            "blocking get on a dead shard: {seen:?}"
        );
    });
    eprintln!(
        "store full-crash shed: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

/// A name-free `get` races a `put` and a `crash_in_cs` on one key. The
/// read takes no slot, so it can land anywhere inside either writer's
/// critical section: it must see the key absent or one of the two
/// written values, never a torn pair. Afterwards the shard's `ops`
/// counts exactly the completed read and the finished put; the crashed
/// put is not an op.
#[test]
fn name_free_get_races_a_put_and_a_crash() {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let store = Arc::new(tiny_store());

        let crasher = Arc::clone(&store);
        let t0 = thread::spawn(move || crasher.crash_in_cs(0, KEY, 100));
        let writer = Arc::clone(&store);
        let t1 = thread::spawn(move || writer.put(1, KEY, 200).unwrap());
        let reader = Arc::clone(&store);
        let t2 = thread::spawn(move || {
            let seen = reader.get(2, KEY);
            assert!(
                matches!(seen, None | Some(100) | Some(200)),
                "torn or invented value: {seen:?}"
            );
        });

        t0.join().unwrap();
        t1.join().unwrap();
        t2.join().unwrap();

        let shard = store.stats()[0];
        assert_eq!(shard.ops, 2, "one read + one finished put");
        assert_eq!(shard.sheds, 0);
        assert_eq!(shard.in_flight_lanes, 1);
    });
    eprintln!(
        "name-free read race: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

/// A `try_get` races a `try_put` on a shard with one crashed holder, so
/// exactly one live slot is left. The read only probes the slot
/// counters and takes no slot, so the write is never shed; the read may
/// be (the write can hold the last slot when it probes), and then it
/// is counted as a shed, not an op.
#[test]
fn try_get_never_makes_a_racing_try_put_shed() {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let store = Arc::new(tiny_store());
        store.crash_in_cs(0, KEY, 100);

        let writer = Arc::clone(&store);
        let t1 = thread::spawn(move || {
            let outcome = writer.try_put(1, KEY, 200);
            assert_eq!(outcome, Some(Ok(())), "the reader took the last slot");
        });
        let reader = Arc::clone(&store);
        let t2 = thread::spawn(move || {
            let got = reader.try_get(2, KEY);
            assert!(
                matches!(got, None | Some(Some(100)) | Some(Some(200))),
                "torn or invented value: {got:?}"
            );
            got.is_some()
        });
        t1.join().unwrap();
        let served = t2.join().unwrap();

        let shard = store.stats()[0];
        assert_eq!(shard.ops, 1 + u64::from(served), "one put + a served read");
        assert_eq!(shard.sheds, u64::from(!served));
        assert_eq!(shard.in_flight_lanes, 1);
    });
    eprintln!(
        "try_get probe vs try_put: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}

/// With `journal_depth = 1` a lane's ring has two slots, so the third
/// put reuses the first put's slot. A reader walking `history` while the
/// holder journals three puts must see each entry whole, with the key
/// and value that entry's own put wrote, or not at all; it must never
/// pair one entry's lsn and value with a later entry's key. Once the
/// writer has joined, the last put is retained.
#[test]
fn journal_history_never_mixes_two_entries() {
    let stats = Builder::new().max_preemptions(2).check(move || {
        let store = Arc::new(store_with_depth(1));

        let writer = Arc::clone(&store);
        let t0 = thread::spawn(move || {
            for key in 1..=3 {
                writer.put(0, key, key * 10).unwrap();
            }
        });
        let journal = store.shard(0).journal();
        let whole = |e: Entry| e.key == e.lsn + 1 && e.value == e.key * 10;
        for name in 0..journal.lanes() {
            for e in journal.history(name) {
                assert!(whole(e), "torn journal entry: {e:?}");
            }
        }
        t0.join().unwrap();

        let retained: Vec<Entry> = (0..journal.lanes())
            .flat_map(|name| journal.history(name))
            .collect();
        assert_eq!(retained.len(), 1, "depth 1 retains one entry: {retained:?}");
        let last = retained[0];
        assert!(whole(last) && last.lsn == 2, "lost the last put: {last:?}");
        assert_eq!(last.state, OpState::Committed);
    });
    eprintln!(
        "journal read vs ring reuse: {} executions, {} schedule points",
        stats.executions, stats.schedule_points
    );
}
