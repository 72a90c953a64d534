//! Model checking of the universal construction, driven by the vendored
//! `kex-loom` checker.
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p kex-waitfree --test loom_universal --release
//! ```
//!
//! Under `cfg(loom)` the `kex_util::sync` facade swaps the atomics and
//! the per-name cache mutexes for model-checked versions, so the
//! production threading loop and resume path run under schedule
//! exploration. Two names run two queue operations each. The schedule
//! in which name 1 announces, is preempted, and name 0 threads name 1's
//! node before its own (helping: name 0's first cell is name 1's turn)
//! takes one preemption, so it lies inside the bound.
//!
//! On every schedule each operation must be threaded exactly once, and
//! each response must equal the oracle's full-replay response at the
//! operation's position in the decided log.

#![cfg(loom)]

mod oracle;

use std::sync::Arc;

use kex_loom::{thread, Builder};
use kex_waitfree::seq::{QueueOp, SeqQueue};
use kex_waitfree::{Sequential, Universal};

type Op = QueueOp<u32>;

/// `SeqQueue` that also records the order its operations were applied
/// in: each response carries the queue's answer plus the log prefix up
/// to and including its own operation, which makes the decided log
/// order visible to the test.
#[derive(Default)]
struct Recorded {
    queue: SeqQueue<u32>,
    log: Vec<Op>,
}

impl Sequential for Recorded {
    type Op = Op;
    type Resp = (Option<u32>, Vec<Op>);

    fn apply(&mut self, op: &Op) -> Self::Resp {
        self.log.push(op.clone());
        (self.queue.apply(op), self.log.clone())
    }
}

/// Name `me`'s two operations with their responses, in program order.
fn run(u: &Universal<Recorded>, me: usize) -> Vec<(Op, Option<u32>, Vec<Op>)> {
    [Op::Enqueue(10 * (me as u32 + 1)), Op::Dequeue]
        .into_iter()
        .map(|op| {
            let (resp, prefix) = u.apply(me, op.clone());
            (op, resp, prefix)
        })
        .collect()
}

#[test]
fn each_op_threads_once_and_answers_like_full_replay() {
    let stats = Builder::new().max_preemptions(2).check(|| {
        let u = Arc::new(Universal::<Recorded>::new(2));
        let u1 = Arc::clone(&u);
        let t = thread::spawn(move || run(&u1, 1));
        let done = [run(&u, 0), t.join().unwrap()];

        // The decided log is the longest prefix any response saw; every
        // other response must have seen a prefix of it.
        let log = done
            .iter()
            .flatten()
            .map(|(_, _, prefix)| prefix)
            .max_by_key(|prefix| prefix.len())
            .unwrap()
            .clone();
        let want = oracle::responses::<SeqQueue<u32>>(&log);
        let mut positions = Vec::new();
        for ops in &done {
            let mut last = None;
            for (op, resp, prefix) in ops {
                let pos = prefix.len() - 1;
                assert_eq!(prefix[..], log[..=pos], "names disagree on the log");
                assert_eq!(&log[pos], op, "op {op:?} answered at another's cell");
                assert_eq!(*resp, want[pos], "{op:?} at cell {pos} of {log:?}");
                assert!(last < Some(pos), "program order broken in {log:?}");
                last = Some(pos);
                positions.push(pos);
            }
        }
        positions.sort_unstable();
        assert_eq!(positions, [0, 1, 2, 3], "an op threaded twice or never");
    });
    assert!(stats.executions > 1, "the model explored one schedule");
}
