//! Spans of the traced run.
//!
//! Every op of the traced run records the same small tree of spans
//! around calls into the layers' public functions: one `[start, end]`
//! pair per span, in ns since a common epoch. The op's id is its thread
//! and index. Spans stay in memory until the run ends; then they are
//! summarised into per-span mean and self times and the first ops'
//! spans are written out as TSV.

use std::io::Write;

/// The span tree one op records; `parent[0]` is `None` (the root).
#[derive(Debug)]
pub struct SpanTree {
    pub names: [&'static str; 3],
    pub parent: [Option<usize>; 3],
}

/// One op's spans: `[start0, end0, start1, end1, start2, end2]`.
pub type OpSpans = [u64; 6];

/// Ops per thread written to the spans file.
const WRITTEN_OPS: usize = 4096;

/// `(mean duration, mean self time)` per span, in ns, over every op of
/// every thread. Self time is the duration minus the children's.
pub fn summarize(tree: &SpanTree, spans: &[Vec<OpSpans>]) -> [(f64, f64); 3] {
    let mut dur = [0f64; 3];
    let mut child = [0f64; 3];
    let mut ops = 0usize;
    for s in spans.iter().flatten() {
        ops += 1;
        for i in 0..3 {
            let d = s[2 * i + 1].saturating_sub(s[2 * i]) as f64;
            dur[i] += d;
            if let Some(p) = tree.parent[i] {
                child[p] += d;
            }
        }
    }
    let n = ops.max(1) as f64;
    std::array::from_fn(|i| (dur[i] / n, (dur[i] - child[i]) / n))
}

/// Writes the first ops' spans of every thread to `path` as
/// `op, span, parent, start_ns, end_ns` rows.
pub fn write_tsv(
    path: &std::path::Path,
    tree: &SpanTree,
    spans: &[Vec<OpSpans>],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tspan\tparent\tstart_ns\tend_ns")?;
    for (t, thread) in spans.iter().enumerate() {
        for (i, s) in thread.iter().take(WRITTEN_OPS).enumerate() {
            for j in 0..3 {
                let parent = tree.parent[j].map_or("-", |p| tree.names[p]);
                writeln!(
                    out,
                    "{}\t{}\t{parent}\t{}\t{}",
                    (t as u64) << 32 | i as u64,
                    tree.names[j],
                    s[2 * j],
                    s[2 * j + 1]
                )?;
            }
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TREE: SpanTree = SpanTree {
        names: ["op", "a", "b"],
        parent: [None, Some(0), Some(1)],
    };

    #[test]
    fn self_time_subtracts_children() {
        // op [0,100], a [10,60] inside it, b [20,50] inside a.
        let spans = vec![
            vec![[0, 100, 10, 60, 20, 50]],
            vec![[0, 200, 0, 100, 0, 100]],
        ];
        let s = summarize(&TREE, &spans);
        assert_eq!(s[0], (150.0, 75.0));
        assert_eq!(s[1], (75.0, 10.0));
        assert_eq!(s[2], (65.0, 65.0));
    }
}
