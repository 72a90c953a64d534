//! The host fingerprint printed with every result.

use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
        .filter(|s| !s.is_empty())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `{"nproc", "cpu", "ordering", "commit", "rustc"}` as one JSON object.
/// The commit reads "unknown" outside a git checkout.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let ordering = if cfg!(feature = "seqcst") {
        "seqcst"
    } else {
        "relaxed"
    };
    let commit =
        first_line("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"ordering\": {}, \"commit\": {}, \"rustc\": {}}}",
        json_str(&cpu),
        json_str(ordering),
        json_str(&commit),
        json_str(&rustc)
    )
}
