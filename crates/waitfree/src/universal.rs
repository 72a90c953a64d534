//! A wait-free universal construction for `k` processes.
//!
//! This is Herlihy's construction: operations are *announced*, threaded
//! onto a totally ordered log by winning (or being helped through) a
//! CAS-based consensus per log cell, and responses are computed by
//! replaying the log. Helping makes it wait-free: a process that keeps
//! losing consensus is eventually pointed to by `(seq + 1) mod k` and
//! every active process proposes *its* announced node until it is
//! threaded.
//!
//! Each name keeps a *resume point*: the sequential state it
//! materialized after its previous operation, plus the log node that
//! state corresponds to. The next operation by that name replays only
//! the decided cells between that node and its own, instead of the whole
//! log from the sentinel. This is sound because the log is append-only,
//! a decided cell never changes, and `S` is deterministic: replaying the
//! cached state forward reproduces exactly the state a full replay would
//! compute. The cache belongs to the *name*, not to a thread — under the
//! k-assignment wrapper names pass between threads, and each cache sits
//! behind its own mutex, which is uncontended because one name has one
//! live holder. Helping never touches the caches, so the threading loop
//! stays wait-free.
//!
//! This is exactly the kind of **wait-free k-process object** the paper's
//! methodology presumes (§1): wrap a `Universal<S>` for `k` processes in
//! a k-assignment wrapper (`kex_core::native::Resilient`) and the result
//! is a `(k-1)`-resilient, `N`-process shared object that is effectively
//! wait-free whenever contention stays at or below `k`.
//!
//! ## Costs and caveats
//!
//! * `apply` costs `O(k)` amortized: each name applies each log cell at
//!   most once over its lifetime, so `k` names replay a log of `m`
//!   operations in `O(k·m)` sequential steps in total. A single call by
//!   a name that sat idle while the others ran replays everything they
//!   appended meanwhile.
//! * Log nodes are reclaimed when the `Universal` is dropped, not during
//!   operation, so memory grows with the history until `Drop`.

use kex_util::sync::atomic::{AtomicPtr, AtomicUsize};
use kex_util::sync::Mutex;

use crate::ordering::SEQ_CST;

use crate::consensus::PtrConsensus;
use crate::seq::Sequential;

/// One log cell: an announced operation plus the consensus machinery
/// that threads it.
struct Node<S: Sequential> {
    /// The operation; `None` only for the sentinel.
    op: Option<S::Op>,
    /// Consensus on the successor cell. Also the authoritative `next`
    /// pointer for traversal: it is set atomically at decision time, so
    /// the chain from the sentinel to any threaded node is never broken
    /// (a separate "next" field could lag behind the decision).
    decide_next: PtrConsensus<Node<S>>,
    /// Position in the log; 0 = not yet threaded, sentinel = 1.
    seq: AtomicUsize,
}

impl<S: Sequential> Node<S> {
    fn new(op: Option<S::Op>) -> *mut Self {
        Box::into_raw(Box::new(Node {
            op,
            decide_next: PtrConsensus::new(),
            seq: AtomicUsize::new(0),
        }))
    }
}

/// Everything the construction keeps per name.
struct Slot<S: Sequential> {
    /// The name's most recently announced node.
    announce: AtomicPtr<Node<S>>,
    /// The latest threaded node the name has seen.
    head: AtomicPtr<Node<S>>,
    /// The state after applying the log up to and including the node;
    /// `None` means "start from the sentinel with `S::default()`".
    cache: Mutex<Option<(*mut Node<S>, S)>>,
}

/// A linearizable, wait-free shared object for `k` processes, built from
/// any deterministic [`Sequential`] specification.
///
/// Process identities are *names* in `0..k` — pass each operation the
/// name of the calling process. Two concurrent calls with the same name
/// are a logic error (the k-assignment wrapper rules them out by
/// construction); they may lose wait-freedom but still answer
/// correctly.
///
/// ```rust
/// use kex_waitfree::seq::{CounterOp, SeqCounter};
/// use kex_waitfree::Universal;
///
/// let counter: Universal<SeqCounter> = Universal::new(3);
/// counter.apply(0, CounterOp::Add(5));
/// counter.apply(2, CounterOp::Add(-2));
/// assert_eq!(counter.apply(1, CounterOp::Get), 3);
/// ```
pub struct Universal<S: Sequential> {
    slots: Box<[Slot<S>]>,
    tail: *mut Node<S>,
}

// SAFETY: all shared mutable state is behind atomics or the per-name
// mutexes; nodes are written once (at creation) before being published
// and are immutable afterwards except for their atomic fields. A cached
// `S` only moves between threads through its name's mutex, hence
// `S: Send`.
unsafe impl<S: Sequential + Send> Send for Universal<S> where S::Op: Send + Sync {}
unsafe impl<S: Sequential + Send> Sync for Universal<S> where S::Op: Send + Sync {}

impl<S: Sequential> std::fmt::Debug for Universal<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Universal").field("k", &self.k()).finish()
    }
}

impl<S: Sequential> Universal<S> {
    /// A fresh object (state `S::default()`) for `k` processes.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one process");
        let tail = Node::new(None);
        // The sentinel occupies log position 1.
        unsafe { (*tail).seq.store(1, SEQ_CST) };
        Universal {
            slots: (0..k)
                .map(|_| Slot {
                    announce: AtomicPtr::new(tail),
                    head: AtomicPtr::new(tail),
                    cache: Mutex::new(None),
                })
                .collect(),
            tail,
        }
    }

    /// The process bound `k`.
    pub fn k(&self) -> usize {
        self.slots.len()
    }

    /// The node with the largest sequence number among the per-process
    /// heads (every threaded node is reachable from it via `next`).
    fn max_head(&self) -> *mut Node<S> {
        // SAFETY (both derefs): the sentinel and every node a head
        // points to come from `Node::new` and are freed only by `Drop`,
        // which has exclusive access.
        let mut best = self.tail;
        let mut best_seq = unsafe { (*best).seq.load(SEQ_CST) };
        for slot in self.slots.iter() {
            let node = slot.head.load(SEQ_CST);
            let seq = unsafe { (*node).seq.load(SEQ_CST) };
            if seq > best_seq {
                best = node;
                best_seq = seq;
            }
        }
        best
    }

    /// Apply `op` on behalf of the process named `me` (`0..k`); returns
    /// the linearized response.
    ///
    /// Wait-free: completes in `O(k)` consensus rounds plus a replay
    /// from this name's previous operation, regardless of the scheduling
    /// (or crash) of other processes.
    ///
    /// # Panics
    /// Panics if `me >= k`.
    pub fn apply(&self, me: usize, op: S::Op) -> S::Resp {
        let k = self.k();
        assert!(me < k, "name {me} out of range 0..{k}");
        let slot = &self.slots[me];
        let mine = Node::new(Some(op));
        slot.announce.store(mine, SEQ_CST);
        slot.head.store(self.max_head(), SEQ_CST);

        // SAFETY: every node reached here (heads, announcements, decided
        // successors, cached resume points) comes from `Node::new` and
        // is freed only by `Drop`. A node with nonzero `seq` is on the
        // decided chain, so walking successors from a cached node whose
        // `seq` is below ours reaches ours before the chain ends.
        unsafe {
            while (*mine).seq.load(SEQ_CST) == 0 {
                let before = slot.head.load(SEQ_CST);
                let before_seq = (*before).seq.load(SEQ_CST);
                // Help the process whose turn it is; otherwise push our
                // own node.
                let help = self.slots[before_seq % k].announce.load(SEQ_CST);
                let prefer = if (*help).seq.load(SEQ_CST) == 0 {
                    help
                } else {
                    mine
                };
                let after = (*before).decide_next.decide(prefer);
                (*after).seq.store(before_seq + 1, SEQ_CST);
                slot.head.store(after, SEQ_CST);
            }
            slot.head.store(mine, SEQ_CST);

            // Resume from this name's previous node and replay the
            // decided chain up to (and including) ours. The cache is
            // taken out while replaying: if `S::apply` panics, the next
            // call falls back to the sentinel instead of a torn state.
            // A same-name call that overlapped this one may have cached
            // a node past ours; that also restarts from the sentinel.
            let mut cache = slot.cache.lock();
            let (mut cur, mut state) = match cache.take() {
                Some((node, state)) if (*node).seq.load(SEQ_CST) < (*mine).seq.load(SEQ_CST) => {
                    (node, state)
                }
                _ => (self.tail, S::default()),
            };
            loop {
                cur = (*cur).decide_next.peek();
                debug_assert!(!cur.is_null(), "log ended before our node");
                let resp = state.apply((*cur).op.as_ref().expect("non-sentinel"));
                if cur == mine {
                    *cache = Some((mine, state));
                    return resp;
                }
            }
        }
    }
}

impl<S: Sequential> Drop for Universal<S> {
    fn drop(&mut self) {
        // With exclusive access every announced node has been threaded,
        // so walking the log (via the *decided* pointers, which are
        // complete even where `next` lags) frees everything exactly once.
        unsafe {
            let mut cur = self.tail;
            while !cur.is_null() {
                let next = (*cur).decide_next.peek();
                drop(Box::from_raw(cur));
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{CounterOp, QueueOp, SeqCounter, SeqQueue};
    use std::collections::HashSet;

    /// Long enough that replaying the whole history per op would crawl.
    const LONG: usize = if cfg!(miri) { 300 } else { 20_000 };

    #[test]
    fn sequential_use_matches_the_spec() {
        let q: Universal<SeqQueue<u32>> = Universal::new(2);
        assert_eq!(q.apply(0, QueueOp::Enqueue(1)), None);
        assert_eq!(q.apply(1, QueueOp::Enqueue(2)), None);
        assert_eq!(q.apply(0, QueueOp::Dequeue), Some(1));
        assert_eq!(q.apply(0, QueueOp::Dequeue), Some(2));
        assert_eq!(q.apply(1, QueueOp::Dequeue), None);
    }

    #[test]
    fn counter_linearizes_concurrent_increments() {
        let k = 4;
        let per = 300;
        let c: Universal<SeqCounter> = Universal::new(k);
        std::thread::scope(|s| {
            for name in 0..k {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..per {
                        c.apply(name, CounterOp::Add(1));
                    }
                });
            }
        });
        assert_eq!(c.apply(0, CounterOp::Get), (k * per) as i64);
    }

    #[test]
    fn queue_conserves_elements_under_concurrency() {
        let k = 3;
        let per = 150u32;
        let q: Universal<SeqQueue<u32>> = Universal::new(k);
        let popped: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|name| {
                    let q = &q;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for i in 0..per {
                            q.apply(name, QueueOp::Enqueue(name as u32 * 1000 + i));
                            if let Some(v) = q.apply(name, QueueOp::Dequeue) {
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
        while let Some(v) = q.apply(0, QueueOp::Dequeue) {
            all.push(v);
        }
        assert_eq!(
            all.len(),
            (k as u32 * per) as usize,
            "lost or duplicated items"
        );
        let distinct: HashSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len(), "duplicated items");
    }

    #[test]
    fn responses_are_linearizable_per_process_fifo() {
        // Each process enqueues an increasing sequence; any dequeuer must
        // observe each process's items in order (FIFO queue + program
        // order).
        let k = 3;
        let per = 80u32;
        let q: Universal<SeqQueue<(usize, u32)>> = Universal::new(k);
        let seen: Vec<Vec<(usize, u32)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..k)
                .map(|name| {
                    let q = &q;
                    s.spawn(move || {
                        let mut got = Vec::new();
                        for i in 0..per {
                            q.apply(name, QueueOp::Enqueue((name, i)));
                            if let Some(v) = q.apply(name, QueueOp::Dequeue) {
                                got.push(v);
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut drain = Vec::new();
        while let Some(v) = q.apply(0, QueueOp::Dequeue) {
            drain.push(v);
        }
        // One consumer's dequeues are in linearization order, so each
        // producer's items appear in increasing order within every
        // consumer's sequence and within the final drain.
        for got in seen.iter().chain(std::iter::once(&drain)) {
            for name in 0..k {
                let seqs: Vec<u32> = got
                    .iter()
                    .filter(|(n, _)| *n == name)
                    .map(|(_, i)| *i)
                    .collect();
                assert!(
                    seqs.windows(2).all(|w| w[0] < w[1]),
                    "producer {name} items reordered: {seqs:?}"
                );
            }
        }
    }

    #[test]
    fn helping_threads_a_stalled_announcement() {
        // Name 1 announces and then stops taking steps before threading
        // its node. Name 0's first cell is name 1's turn (`1 % 2`), so it
        // threads name 1's node first and its own second.
        let c: Universal<SeqCounter> = Universal::new(2);
        let stalled = Node::new(Some(CounterOp::Add(10)));
        c.slots[1].announce.store(stalled, SEQ_CST);
        assert_eq!(c.apply(0, CounterOp::Add(1)), 11);
        // SAFETY: the node is now on the log, which `c` frees on drop.
        assert_eq!(unsafe { (*stalled).seq.load(SEQ_CST) }, 2);
        assert_eq!(c.apply(1, CounterOp::Get), 11);
    }

    #[test]
    fn long_log_stays_fast_enough_to_finish() {
        // Quadratic replay would make this test crawl; the per-name
        // resume point keeps it linear.
        let c: Universal<SeqCounter> = Universal::new(2);
        for i in 0..LONG {
            c.apply(i % 2, CounterOp::Add(1));
        }
        assert_eq!(c.apply(0, CounterOp::Get), LONG as i64);
    }

    #[test]
    fn overlapping_calls_with_one_name_stay_correct() {
        // Misuse the wrapper would rule out: two threads share name 0.
        // Whichever finishes second may find a cache past its own node.
        let per = if cfg!(miri) { 20 } else { 2_000 };
        let c: Universal<SeqCounter> = Universal::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..per {
                        c.apply(0, CounterOp::Add(1));
                    }
                });
            }
        });
        assert_eq!(c.apply(1, CounterOp::Get), 2 * per);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_foreign_names() {
        let c: Universal<SeqCounter> = Universal::new(2);
        c.apply(2, CounterOp::Get);
    }

    #[test]
    fn drop_frees_without_crashing_after_heavy_use() {
        let c: Universal<SeqCounter> = Universal::new(3);
        std::thread::scope(|s| {
            for name in 0..3 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..500 {
                        c.apply(name, CounterOp::Add(1));
                    }
                });
            }
        });
        drop(c); // exercised under ASAN-less CI by sheer volume
    }
}
