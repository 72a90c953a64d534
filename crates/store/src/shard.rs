//! One shard: a `Resilient<O>` wrapper, its per-name operation lanes,
//! and monitoring counters.
//!
//! The shard is where the paper's composition becomes a service
//! building block: the k-assignment wrapper admits at most `k`
//! processes and hands each a *name*, the name indexes both the
//! k-process object's identity space and the journal lane the operation
//! is logged to, and a crash inside the critical section consumes the
//! slot, the name, and the lane together — so the lane's in-flight
//! entry is exactly the crashed process's last operation.
//!
//! An op pays only for the layers it needs. The wrapper exists to hand
//! the object its names, and [`ShardObject`] reads need none, so a
//! blocking read skips admission and calls the object directly. A
//! non-blocking read needs only the shed signal, so it reads the slot
//! counters without taking a slot. Writes always take a name, because
//! the journal lane is indexed by it.

use kex_core::native::Resilient;
use kex_util::sync::atomic::AtomicU64;

use crate::journal::{LaneJournal, OpKind};
use crate::object::ShardObject;
use crate::ordering::{COUNT, SEQ_CST};
use crate::traits::PutError;

/// A single shard; created and routed to by [`crate::Store`].
pub struct Shard<O> {
    res: Resilient<O>,
    journal: LaneJournal,
    /// One monitoring line per process id in `0..n`.
    counts: Box<[PidCounts]>,
}

/// One process's monitoring counters in one shard. Only process `p`
/// writes line `p` (one thread at a time by the store's `p` contract),
/// so a bump is a plain load + store; the 64-byte alignment keeps two
/// processes' lines off one cache line.
#[repr(align(64))]
struct PidCounts {
    /// Reads and scans this process completed through the shard.
    reads: AtomicU64,
    /// This process's non-blocking operations shed for want of a slot.
    sheds: AtomicU64,
}

impl PidCounts {
    fn bump(counter: &AtomicU64) {
        counter.store(counter.load(COUNT) + 1, COUNT);
    }
}

/// A monitoring snapshot of one shard; all fields are approximate
/// point-in-time reads (see [`Shard::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's admission bound.
    pub k: usize,
    /// Distinct keys resident in the shard object.
    pub keys: usize,
    /// Operations completed through the shard: every process's reads
    /// and scans, plus every finished (committed or aborted) put, read
    /// off the journal lane heads. An op whose holder crashed is not
    /// counted.
    pub ops: u64,
    /// Non-blocking operations shed, summed over processes.
    pub sheds: u64,
    /// Lanes whose last journaled operation is still in flight — after
    /// crashes, the number of attributable dead holders.
    pub in_flight_lanes: usize,
}

impl<O: ShardObject> Shard<O> {
    /// A shard over `obj` for `n` processes with admission bound `k`,
    /// journaling the most recent `journal_depth` operations per lane.
    pub fn new(n: usize, k: usize, journal_depth: usize, obj: O) -> Self {
        Shard {
            res: Resilient::new(n, k, obj),
            journal: LaneJournal::new(k, journal_depth),
            counts: (0..n)
                .map(|_| PidCounts {
                    reads: AtomicU64::new(0),
                    sheds: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// The shard's admission bound.
    pub fn k(&self) -> usize {
        self.res.k()
    }

    /// The shard's per-name journal.
    pub fn journal(&self) -> &LaneJournal {
        &self.journal
    }

    /// Apply a put as the holder of `name`, journaled to its lane. The
    /// lane head advancing is what [`Shard::stats`] counts.
    fn journaled_put(&self, obj: &O, name: usize, key: u64, value: u64) -> Result<(), PutError> {
        let lsn = self.journal.begin(name, OpKind::Put, key, value);
        let result = obj.put(name, key, value);
        match result {
            Ok(()) => self.journal.commit(name, lsn),
            Err(_) => self.journal.abort(name, lsn),
        }
        result
    }

    /// Blocking read. It needs no name, so the object is called
    /// directly, with no admission: the read never waits, even on a
    /// shard whose `k` slots are all crash-consumed.
    pub fn get(&self, p: usize, key: u64) -> Option<u64> {
        let got = self.res.object_unguarded().get(0, key);
        PidCounts::bump(&self.counts[p].reads);
        got
    }

    /// Non-blocking read; `None` = shed. It sheds when a
    /// [`Shard::try_put`] arriving now would be refused, but it only
    /// *reads* the slot counters ([`Resilient::has_free_slot`]) and
    /// then reads the object like [`Shard::get`]: it takes no slot, so
    /// it never makes a concurrent `try_put` shed.
    pub fn try_get(&self, p: usize, key: u64) -> Option<Option<u64>> {
        let got = self
            .res
            .has_free_slot()
            .then(|| self.res.object_unguarded().get(0, key));
        let counts = &self.counts[p];
        PidCounts::bump(if got.is_some() {
            &counts.reads
        } else {
            &counts.sheds
        });
        got
    }

    /// Guarded, journaled write.
    pub fn put(&self, p: usize, key: u64, value: u64) -> Result<(), PutError> {
        self.res
            .with(p, |obj, name| self.journaled_put(obj, name, key, value))
    }

    /// Non-blocking guarded, journaled write; `None` = shed.
    pub fn try_put(&self, p: usize, key: u64, value: u64) -> Option<Result<(), PutError>> {
        let outcome = self
            .res
            .try_with(p, |obj, name| self.journaled_put(obj, name, key, value));
        if outcome.is_none() {
            PidCounts::bump(&self.counts[p].sheds);
        }
        outcome
    }

    /// Scan of this shard's pairs; like [`Shard::get`], it skips
    /// admission.
    pub fn scan(&self, p: usize, f: &mut dyn FnMut(u64, u64)) {
        self.res.object_unguarded().scan(0, f);
        PidCounts::bump(&self.counts[p].reads);
    }

    /// Crash-failure injection: enter as `p`, journal and apply a put,
    /// then die *before committing* — permanently consuming one slot,
    /// one name, and leaving the lane's in-flight entry attributing the
    /// interrupted operation to this crash. Used by the loom model and
    /// the crash-mix benchmark runs.
    pub fn crash_in_cs(&self, p: usize, key: u64, value: u64) {
        let guard = self.res.enter(p);
        let name = guard.name();
        self.journal.begin(name, OpKind::Put, key, value);
        let _ = guard.object().put(name, key, value);
        // The crash: the slot and name never return.
        std::mem::forget(guard);
    }

    /// Approximate monitoring snapshot (no wrapper entry; every field
    /// is an always-safe read).
    pub fn stats(&self) -> ShardStats {
        let reads: u64 = self.counts.iter().map(|c| c.reads.load(SEQ_CST)).sum();
        let puts: u64 = (0..self.journal.lanes())
            .map(|name| self.journal.committed(name))
            .sum();
        ShardStats {
            k: self.res.k(),
            keys: self.res.object_unguarded().len_unguarded(),
            ops: reads + puts,
            sheds: self.counts.iter().map(|c| c.sheds.load(SEQ_CST)).sum(),
            in_flight_lanes: self.journal.in_flight_lanes(),
        }
    }
}

impl<O: Sync> std::fmt::Debug for Shard<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("k", &self.res.k())
            .field("journal", &self.journal)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::OpState;
    use crate::object::KvCells;

    #[test]
    fn ops_are_journaled_to_the_holders_lane() {
        let shard = Shard::new(4, 2, 8, KvCells::new(16));
        shard.put(0, 5, 50).unwrap();
        shard.put(1, 6, 60).unwrap();
        assert_eq!(shard.get(2, 5), Some(50));
        let committed: u64 = (0..2).map(|name| shard.journal().committed(name)).sum();
        assert_eq!(committed, 2);
        assert_eq!(shard.stats().in_flight_lanes, 0);
        assert_eq!(shard.stats().keys, 2);
        assert_eq!(shard.stats().ops, 3);
    }

    #[test]
    fn crash_in_cs_is_attributable_and_survivable() {
        let shard = Shard::new(6, 2, 4, KvCells::new(16));
        shard.crash_in_cs(0, 42, 1);
        // One slot and one lane are gone; survivors still operate.
        shard.put(1, 42, 2).unwrap();
        assert!(shard.get(2, 42).is_some());
        assert_eq!(shard.stats().in_flight_lanes, 1);
        // The crashed holder keeps its slot: while a live holder has
        // the other one a try is refused, and once it leaves one is
        // admitted.
        let live = shard.res.enter(3);
        assert_eq!(shard.try_get(4, 42), None);
        drop(live);
        assert_eq!(shard.try_get(4, 42), Some(Some(2)));
        // The dead lane names the interrupted op.
        let dead: Vec<_> = (0..2)
            .filter_map(|name| shard.journal().in_flight(name))
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!((dead[0].key, dead[0].value), (42, 1));
        assert_eq!(dead[0].state, OpState::InFlight);
    }

    #[test]
    fn full_shard_sheds_nonblocking_ops() {
        let shard = Shard::new(6, 2, 4, KvCells::new(16));
        shard.crash_in_cs(0, 1, 1);
        shard.crash_in_cs(1, 2, 2);
        assert_eq!(shard.try_put(2, 3, 3), None);
        assert_eq!(shard.try_get(3, 1), None);
        assert_eq!(shard.stats().sheds, 2);
        assert_eq!(shard.stats().in_flight_lanes, 2);
    }

    #[test]
    fn name_free_get_answers_on_a_fully_crash_consumed_shard() {
        use std::sync::{mpsc, Arc};
        use std::time::Duration;
        let shard = Arc::new(Shard::new(6, 2, 4, KvCells::new(16)));
        shard.put(0, 7, 70).unwrap();
        shard.crash_in_cs(1, 7, 71);
        shard.crash_in_cs(2, 8, 80);
        // Every slot is crash-consumed: a blocking read that took
        // admission would wait forever, so it runs on its own thread.
        let (tx, rx) = mpsc::channel();
        let reader = Arc::clone(&shard);
        let reader = kex_util::sync::thread::spawn(move || tx.send(reader.get(3, 7)).unwrap());
        let got = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(got, Ok(Some(71)), "blocking get waited for a slot");
        reader.join().unwrap();
        // The admission probes still shed.
        assert_eq!(shard.try_get(4, 7), None);
        assert_eq!(shard.try_put(4, 9, 9), None);
        let stats = shard.stats();
        assert_eq!((stats.ops, stats.sheds), (2, 2));
        assert_eq!(stats.in_flight_lanes, 2);
    }

    #[test]
    fn stats_count_admitted_reads_and_finished_puts_per_process() {
        const ROUNDS: u64 = 400;
        // k = 3 with one crash: blocking ops always find a slot, and
        // try_* ops may be shed while the two live slots are held.
        let shard = Shard::new(6, 3, 4, KvCells::new(16));
        let (ops, sheds) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|p| {
                    let shard = &shard;
                    s.spawn(move || {
                        let (mut ops, mut sheds) = (0u64, 0u64);
                        for i in 0..ROUNDS {
                            let key = i % 5;
                            let served = match (i + p as u64) % 4 {
                                0 => {
                                    let _ = shard.get(p, key);
                                    true
                                }
                                1 => shard.try_get(p, key).is_some(),
                                2 => {
                                    shard.put(p, key, i).unwrap();
                                    true
                                }
                                _ => shard.try_put(p, key, i).is_some(),
                            };
                            if served {
                                ops += 1;
                            } else {
                                sheds += 1;
                            }
                            if p == 3 && i == ROUNDS / 2 {
                                shard.crash_in_cs(5, key, i);
                            }
                        }
                        (ops, sheds)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .fold((0, 0), |(o, s), (wo, ws)| (o + wo, s + ws))
        });
        assert_eq!(ops + sheds, 4 * ROUNDS);
        let stats = shard.stats();
        assert_eq!(stats.ops, ops, "the crashed put must not be counted");
        assert_eq!(stats.sheds, sheds);
        assert_eq!(stats.in_flight_lanes, 1);
    }

    #[test]
    fn out_of_range_put_aborts_instead_of_leaving_a_phantom_crash() {
        use crate::object::{MAX_KEY, MAX_VALUE};
        let shard = Shard::new(4, 2, 4, KvCells::new(4));
        assert_eq!(shard.put(0, MAX_KEY + 1, 0), Err(PutError::OutOfRange));
        assert_eq!(
            shard.try_put(1, 0, MAX_VALUE + 1),
            Some(Err(PutError::OutOfRange))
        );
        assert_eq!(shard.get(2, MAX_KEY + 1), None);
        let stats = shard.stats();
        assert_eq!(stats.in_flight_lanes, 0);
        assert_eq!(stats.keys, 0);
        // Both slots are still free.
        shard.put(0, 1, 1).unwrap();
        shard.put(1, 2, 2).unwrap();
    }

    #[test]
    fn aborts_are_journaled_not_in_flight() {
        let shard = Shard::new(4, 1, 4, KvCells::new(2));
        shard.put(0, 0, 0).unwrap();
        shard.put(0, 1, 1).unwrap();
        assert_eq!(shard.put(0, 2, 2), Err(PutError::ShardFull));
        assert_eq!(shard.stats().in_flight_lanes, 0);
        let hist = shard.journal().history(0);
        assert_eq!(hist.last().unwrap().state, OpState::Aborted);
    }
}
