//! Typed wait-free queue and stack, instantiating the universal
//! construction — ready-made payloads for the resiliency wrapper.

use crate::seq::{QueueOp, SeqQueue, SeqStack, StackOp};
use crate::universal::Universal;

/// A linearizable, wait-free FIFO queue for `k` processes.
#[derive(Debug)]
pub struct WfQueue<T: Clone + Send + Sync> {
    inner: Universal<SeqQueue<T>>,
}

impl<T: Clone + Send + Sync> WfQueue<T> {
    /// An empty queue for `k` processes.
    pub fn new(k: usize) -> Self {
        WfQueue {
            inner: Universal::new(k),
        }
    }

    /// The process bound `k`.
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// Enqueue `value` on behalf of name `me`.
    pub fn enqueue(&self, me: usize, value: T) {
        self.inner.apply(me, QueueOp::Enqueue(value));
    }

    /// Dequeue the head, if any, on behalf of name `me`.
    pub fn dequeue(&self, me: usize) -> Option<T> {
        self.inner.apply(me, QueueOp::Dequeue)
    }
}

/// A linearizable, wait-free LIFO stack for `k` processes.
#[derive(Debug)]
pub struct WfStack<T: Clone + Send + Sync> {
    inner: Universal<SeqStack<T>>,
}

impl<T: Clone + Send + Sync> WfStack<T> {
    /// An empty stack for `k` processes.
    pub fn new(k: usize) -> Self {
        WfStack {
            inner: Universal::new(k),
        }
    }

    /// The process bound `k`.
    pub fn k(&self) -> usize {
        self.inner.k()
    }

    /// Push `value` on behalf of name `me`.
    pub fn push(&self, me: usize, value: T) {
        self.inner.apply(me, StackOp::Push(value));
    }

    /// Pop the most recent value, if any, on behalf of name `me`.
    pub fn pop(&self, me: usize) -> Option<T> {
        self.inner.apply(me, StackOp::Pop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_round_trip() {
        let q = WfQueue::new(2);
        q.enqueue(0, "a");
        q.enqueue(1, "b");
        assert_eq!(q.dequeue(0), Some("a"));
        assert_eq!(q.dequeue(1), Some("b"));
        assert_eq!(q.dequeue(0), None);
    }

    #[test]
    fn stack_round_trip() {
        let s = WfStack::new(2);
        s.push(0, 1);
        s.push(1, 2);
        assert_eq!(s.pop(0), Some(2));
        assert_eq!(s.pop(1), Some(1));
        assert_eq!(s.pop(0), None);
    }

    #[test]
    fn long_queue_log_stays_fast_enough_to_finish() {
        // The benchmark's shape: alternating enqueue/dequeue under two
        // names, so the queue stays short while the log grows to 20k
        // operations. Replaying the whole history per op would crawl.
        let pairs = if cfg!(miri) { 150 } else { 10_000 };
        let q = WfQueue::new(2);
        for i in 0..pairs {
            q.enqueue(i % 2, i);
            assert_eq!(q.dequeue((i + 1) % 2), Some(i));
        }
        assert_eq!(q.dequeue(0), None);
    }

    #[test]
    fn concurrent_stack_conserves_elements() {
        let k = 3;
        let per = 60;
        let s = WfStack::new(k);
        let popped: Vec<Vec<u32>> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..k)
                .map(|me| {
                    let s = &s;
                    sc.spawn(move || {
                        let mut got = Vec::new();
                        for i in 0..per {
                            s.push(me, (me * 1000 + i) as u32);
                            if let Some(v) = s.pop(me) {
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
        while let Some(v) = s.pop(0) {
            all.push(v);
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), k * per, "lost or duplicated stack elements");
    }
}
