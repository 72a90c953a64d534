//! The reference the universal construction is checked against: the
//! textbook response rule, which answers every operation by replaying
//! the whole log from `S::default()` up to and including it.

use kex_waitfree::Sequential;

/// The response of the operation at each position of `log` (a decided
/// log order), each computed by a full replay of its prefix.
pub fn responses<S: Sequential>(log: &[S::Op]) -> Vec<S::Resp> {
    (1..=log.len())
        .map(|len| {
            let mut state = S::default();
            let mut resp = None;
            for op in &log[..len] {
                resp = Some(state.apply(op));
            }
            resp.expect("the prefix ends at this op")
        })
        .collect()
}
