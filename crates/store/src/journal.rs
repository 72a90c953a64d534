//! Per-name operation lanes: an append-only journal in the spirit of
//! quickstep's per-lane WAL discipline, keyed by k-assignment *names*.
//!
//! The k-assignment wrapper guarantees that at most one live process
//! holds each name at a time, so a name is a natural single-writer lane:
//! the holder journals `begin → (object op) → commit` into its lane with
//! plain atomic stores and no further synchronization among writers.
//! Because a crashed process consumes its name forever (the paper's
//! failure model), the lane it leaves behind is *attributable*: an entry
//! that is begun but never committed sits at the lane head and names
//! exactly the in-flight operation the crash interrupted — which is what
//! a recovery pass (or the crash-mix benchmark) reads back out.
//!
//! Lanes are fixed-size rings; only the most recent `depth` entries are
//! retained. Each ring has `depth + 1` slots, so the slot the next
//! `begin` overwrites never holds a retained entry. The head advances on
//! *commit*, so the in-flight entry (if any) always lives at
//! `head % (depth + 1)`.

use kex_util::sync::atomic::AtomicU64;
use kex_util::CachePadded;

use crate::ordering::SEQ_CST;

/// State of a journal slot, packed into the low bits of its meta word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpState {
    /// Begun, outcome unknown — the attribution target after a crash.
    InFlight,
    /// Completed successfully.
    Committed,
    /// Completed with an object-level error (e.g. shard full).
    Aborted,
}

/// Kind of journaled operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// An insert/overwrite.
    Put,
}

/// One decoded journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Lane-local sequence number (0-based, monotone).
    pub lsn: u64,
    /// What the operation was.
    pub kind: OpKind,
    /// How it ended — or [`OpState::InFlight`] if it never did.
    pub state: OpState,
    /// The operation's key.
    pub key: u64,
    /// The operation's value.
    pub value: u64,
}

const STATE_EMPTY: u64 = 0;
const STATE_IN_FLIGHT: u64 = 1;
const STATE_COMMITTED: u64 = 2;
const STATE_ABORTED: u64 = 3;
/// meta = `lsn << 4 | kind << 2 | state` (60-bit lsn).
const META_BITS: u32 = 4;

/// One name's ring: a head counter plus `depth + 1` (meta, key, value)
/// slot triples, padded so lanes never share a cache line.
struct Lane {
    head: CachePadded<AtomicU64>,
    meta: Vec<AtomicU64>,
    keys: Vec<AtomicU64>,
    vals: Vec<AtomicU64>,
}

/// The per-shard journal: one single-writer lane per k-assignment name.
pub struct LaneJournal {
    lanes: Vec<Lane>,
    depth: usize,
}

impl std::fmt::Debug for LaneJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneJournal")
            .field("lanes", &self.lanes.len())
            .field("depth", &self.depth)
            .finish()
    }
}

impl LaneJournal {
    /// A journal with one lane per name in `0..k`, each retaining the
    /// most recent `depth` entries (`depth` rounded up to at least 1).
    pub fn new(k: usize, depth: usize) -> Self {
        let depth = depth.max(1);
        let slots = depth + 1;
        LaneJournal {
            lanes: (0..k)
                .map(|_| Lane {
                    head: CachePadded::new(AtomicU64::new(0)),
                    meta: (0..slots).map(|_| AtomicU64::new(STATE_EMPTY)).collect(),
                    keys: (0..slots).map(|_| AtomicU64::new(0)).collect(),
                    vals: (0..slots).map(|_| AtomicU64::new(0)).collect(),
                })
                .collect(),
            depth,
        }
    }

    /// Number of lanes (the wrapper's `k`).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Entries retained per lane.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Ring slot of entry `lsn`: one more slot than retained entries.
    fn slot(&self, lsn: u64) -> usize {
        (lsn % (self.depth as u64 + 1)) as usize
    }

    /// Journal the start of an operation on `name`'s lane; returns the
    /// entry's lane-local sequence number for [`LaneJournal::commit`] /
    /// [`LaneJournal::abort`].
    ///
    /// Caller contract (what the k-assignment buys): the caller holds
    /// `name` right now, making it the lane's only writer.
    pub fn begin(&self, name: usize, kind: OpKind, key: u64, value: u64) -> u64 {
        let lane = &self.lanes[name];
        let lsn = lane.head.load(SEQ_CST);
        let slot = self.slot(lsn);
        lane.keys[slot].store(key, SEQ_CST);
        lane.vals[slot].store(value, SEQ_CST);
        let kind = match kind {
            OpKind::Put => 0u64,
        };
        // Publishing the meta word last makes the (key, value) pair
        // visible before any observer can classify the entry in-flight.
        lane.meta[slot].store(lsn << META_BITS | kind << 2 | STATE_IN_FLIGHT, SEQ_CST);
        lsn
    }

    fn finish(&self, name: usize, lsn: u64, state: u64) {
        let lane = &self.lanes[name];
        let slot = self.slot(lsn);
        let meta = lane.meta[slot].load(SEQ_CST);
        debug_assert_eq!(meta >> META_BITS, lsn, "finish of a non-head entry");
        lane.meta[slot].store(meta & !0b11 | state, SEQ_CST);
        // Advancing the head only now keeps the in-flight entry (if the
        // writer dies first) pinned at `head`'s slot.
        lane.head.store(lsn + 1, SEQ_CST);
    }

    /// Mark `name`'s entry `lsn` committed and advance the lane head.
    pub fn commit(&self, name: usize, lsn: u64) {
        self.finish(name, lsn, STATE_COMMITTED);
    }

    /// Mark `name`'s entry `lsn` aborted (the object refused the op)
    /// and advance the lane head.
    pub fn abort(&self, name: usize, lsn: u64) {
        self.finish(name, lsn, STATE_ABORTED);
    }

    fn decode(&self, name: usize, lsn: u64) -> Option<Entry> {
        let lane = &self.lanes[name];
        let slot = self.slot(lsn);
        let meta = lane.meta[slot].load(SEQ_CST);
        if meta & 0b11 == STATE_EMPTY || meta >> META_BITS != lsn {
            return None;
        }
        let key = lane.keys[slot].load(SEQ_CST);
        let value = lane.vals[slot].load(SEQ_CST);
        // The slot is rewritten only by `begin(lsn + depth + 1)`, which
        // runs after the head reaches `lsn + depth + 1`. A head still
        // below that after the payload loads means the payload is entry
        // `lsn`'s; otherwise it may be half the next entry's, so drop
        // it. Every retained entry (`lsn >= head - depth`) passes while
        // its lane is idle.
        if lane.head.load(SEQ_CST) > lsn + self.depth as u64 {
            return None;
        }
        Some(Entry {
            lsn,
            kind: OpKind::Put,
            state: match meta & 0b11 {
                STATE_IN_FLIGHT => OpState::InFlight,
                STATE_COMMITTED => OpState::Committed,
                _ => OpState::Aborted,
            },
            key,
            value,
        })
    }

    /// The begun-but-unfinished operation on `name`'s lane, if any —
    /// after a crash, the attributable in-flight op the holder died in.
    ///
    /// Sound to call from any process for lanes whose holder is gone.
    /// Racing it against a *live* holder yields either a momentary
    /// in-flight entry or `None`, never a torn one: an entry whose slot
    /// the holder may have started to reuse is dropped.
    pub fn in_flight(&self, name: usize) -> Option<Entry> {
        let head = self.lanes[name].head.load(SEQ_CST);
        self.decode(name, head)
            .filter(|e| e.state == OpState::InFlight)
    }

    /// How many lanes currently show an in-flight entry.
    pub fn in_flight_lanes(&self) -> usize {
        (0..self.lanes.len())
            .filter(|&name| self.in_flight(name).is_some())
            .count()
    }

    /// Completed entries committed to `name`'s lane so far.
    pub fn committed(&self, name: usize) -> u64 {
        self.lanes[name].head.load(SEQ_CST)
    }

    /// The retained tail of `name`'s lane, oldest first (completed
    /// entries plus a trailing in-flight one, if any). Racing a live
    /// holder, an entry whose slot is being reused drops out rather
    /// than mixing two entries' fields.
    pub fn history(&self, name: usize) -> Vec<Entry> {
        // Candidate lsns are the `depth` retained entries plus the
        // (possibly in-flight) head entry; `decode` rejects slots whose
        // stored lsn does not match, so overwritten history drops out.
        let head = self.lanes[name].head.load(SEQ_CST);
        let first = head.saturating_sub(self.depth as u64);
        (first..=head)
            .filter_map(|lsn| self.decode(name, lsn))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_commit_advances_and_records() {
        let j = LaneJournal::new(2, 4);
        let lsn = j.begin(0, OpKind::Put, 7, 70);
        assert_eq!(lsn, 0);
        assert_eq!(j.in_flight(0).unwrap().key, 7);
        assert_eq!(j.in_flight_lanes(), 1);
        j.commit(0, lsn);
        assert_eq!(j.in_flight(0), None);
        assert_eq!(j.committed(0), 1);
        let hist = j.history(0);
        assert_eq!(hist.len(), 1);
        assert_eq!(
            hist[0],
            Entry {
                lsn: 0,
                kind: OpKind::Put,
                state: OpState::Committed,
                key: 7,
                value: 70
            }
        );
    }

    #[test]
    fn crash_leaves_attributable_in_flight_entry() {
        let j = LaneJournal::new(3, 4);
        j.begin(1, OpKind::Put, 42, 1); // never committed: the crash
        let lsn = j.begin(2, OpKind::Put, 9, 2);
        j.commit(2, lsn);
        assert_eq!(j.in_flight_lanes(), 1);
        let e = j.in_flight(1).unwrap();
        assert_eq!((e.key, e.value, e.state), (42, 1, OpState::InFlight));
        assert_eq!(j.in_flight(0), None);
        assert_eq!(j.in_flight(2), None);
    }

    #[test]
    fn aborted_ops_are_not_in_flight() {
        let j = LaneJournal::new(1, 2);
        let lsn = j.begin(0, OpKind::Put, 1, 1);
        j.abort(0, lsn);
        assert_eq!(j.in_flight(0), None);
        assert_eq!(j.history(0)[0].state, OpState::Aborted);
    }

    #[test]
    fn ring_retains_only_the_most_recent_entries() {
        let j = LaneJournal::new(1, 4);
        for i in 0..10u64 {
            let lsn = j.begin(0, OpKind::Put, i, i * 10);
            j.commit(0, lsn);
        }
        let hist = j.history(0);
        let keys: Vec<u64> = hist.iter().map(|e| e.key).collect();
        assert_eq!(keys, [6, 7, 8, 9], "exactly the last `depth` entries");
        for w in hist.windows(2) {
            assert_eq!(w[1].lsn, w[0].lsn + 1);
        }
    }

    #[test]
    fn depth_one_keeps_the_last_committed_entry() {
        let j = LaneJournal::new(1, 1);
        let lsn = j.begin(0, OpKind::Put, 1, 10);
        j.commit(0, lsn);
        let hist = j.history(0);
        assert_eq!(hist.len(), 1, "the one retained entry is lost: {hist:?}");
        assert_eq!((hist[0].key, hist[0].value), (1, 10));

        // A second put in flight still leaves the committed one whole.
        j.begin(0, OpKind::Put, 2, 20);
        let states: Vec<_> = j.history(0).iter().map(|e| (e.key, e.state)).collect();
        assert_eq!(
            states,
            [(1, OpState::Committed), (2, OpState::InFlight)],
            "the in-flight entry must not evict the retained one"
        );
    }
}
