//! The kex benchmark: three seeded workloads through the public API of
//! `kex-store`, `kex-core::native` and `kex-waitfree`.
//!
//! ```text
//! kex-layerbench --workload <kv-read|kv-crash|wf-queue> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. Both check the outputs; the last stdout line is the JSON
//! result, and the exit code is 1 when any check failed.

mod alloc;
mod host;
mod kv;
mod ladder;
mod queue;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::time::Duration;

use kex_store::KvCells;

use workload::{KV_CRASH, KV_READ, THREADS};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: kex-layerbench --workload <kv-read|kv-crash|wf-queue> --seed <n> --seconds <1-600> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["kv-read", "kv-crash", "wf-queue"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    // A panicking worker would leave the others waiting at a barrier;
    // end the whole run instead, without a result line.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::exit(101);
    }));
    println!("host {}", host::fingerprint());
    println!(
        "workload {} seed {} seconds {} trace {} threads {THREADS} (closed loop)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let secs = Duration::from_secs(args.seconds);
    let report = match (args.workload.as_str(), args.trace) {
        ("kv-read", false) => {
            run::kv_end_to_end(&KV_READ, args.seed, secs, || KvCells::new(KV_READ.capacity))
        }
        ("kv-crash", false) => run::kv_end_to_end(&KV_CRASH, args.seed, secs, || {
            KvCells::new(KV_CRASH.capacity)
        }),
        ("wf-queue", false) => run::queue_end_to_end(args.seed, secs),
        ("kv-read", true) => run::kv_layers("kv-read", &KV_READ, args.seed, secs),
        ("kv-crash", true) => run::kv_layers("kv-crash", &KV_CRASH, args.seed, secs),
        (_, true) => run::queue_layers("wf-queue", args.seed, secs),
        (_, false) => unreachable!("workload names are checked in parse"),
    };
    println!("{}", report.json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload kv-crash --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kv-crash", 7, 10, true)
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload kv-read",
            "--workload kv-read --seed x",
            "--workload kv-read --seed 1 --trace 2",
            "--workload kv-read --seed 1 --seconds 0",
            "--workload kv-read --seed 1 --bogus 1",
            "--workload kv-read --seed",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
