//! Sequential equivalence of `Universal` with the full-replay oracle.
//!
//! Seeded operation streams run through a `Universal` under rotating
//! names and through the oracle, which answers each operation by
//! replaying the whole log from scratch; every response must match. One
//! name does the first operation and then sits idle while the others
//! run, so its next operation resumes from far back in the log.

mod oracle;

use std::fmt::Debug;

use kex_util::rng::SmallRng;
use kex_waitfree::seq::{
    CounterOp, QueueOp, RegisterOp, SeqCounter, SeqQueue, SeqRegister, SeqStack, StackOp,
};
use kex_waitfree::{Sequential, Universal};

const K: usize = 4;
/// Operations the last name sits out after its first one.
const IDLE: usize = if cfg!(miri) { 60 } else { 1_000 };
/// Operations by all names after that.
const TAIL: usize = if cfg!(miri) { 20 } else { 300 };
const SEEDS: u64 = if cfg!(miri) { 1 } else { 4 };

/// The name of each operation: name `K-1` first, then `IDLE` ops by the
/// other names, then `TAIL` ops by any name.
fn names(rng: &mut SmallRng) -> Vec<usize> {
    let mut names = vec![K - 1];
    names.extend((0..IDLE).map(|_| rng.gen_range(0..K - 1)));
    names.extend((0..TAIL).map(|_| rng.gen_range(0..K)));
    assert!(
        names[IDLE + 1..].contains(&(K - 1)),
        "the idle name resumes"
    );
    names
}

fn check<S>(mut gen: impl FnMut(&mut SmallRng) -> S::Op)
where
    S: Sequential + Send,
    S::Resp: PartialEq + Debug,
{
    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let names = names(&mut rng);
        let ops: Vec<S::Op> = names.iter().map(|_| gen(&mut rng)).collect();
        let u: Universal<S> = Universal::new(K);
        let want = oracle::responses::<S>(&ops);
        for (i, (&me, op)) in names.iter().zip(&ops).enumerate() {
            let got = u.apply(me, op.clone());
            assert_eq!(got, want[i], "seed {seed}: op {i} by name {me}");
        }
    }
}

#[test]
fn queue_matches_full_replay() {
    check::<SeqQueue<u32>>(|rng| match rng.gen_bool(0.5) {
        true => QueueOp::Enqueue(rng.next_u64() as u32),
        false => QueueOp::Dequeue,
    });
}

#[test]
fn stack_matches_full_replay() {
    check::<SeqStack<u32>>(|rng| match rng.gen_bool(0.5) {
        true => StackOp::Push(rng.next_u64() as u32),
        false => StackOp::Pop,
    });
}

#[test]
fn register_matches_full_replay() {
    check::<SeqRegister<u64>>(|rng| match rng.gen_bool(0.5) {
        true => RegisterOp::Write(rng.next_u64()),
        false => RegisterOp::Read,
    });
}

#[test]
fn counter_matches_full_replay() {
    check::<SeqCounter>(|rng| match rng.gen_bool(0.7) {
        true => CounterOp::Add(rng.gen_range(0..21) as i64 - 10),
        false => CounterOp::Get,
    });
}
