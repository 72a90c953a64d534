//! The run's result: correctness checks, op counts and named metrics.
//!
//! Human-readable lines go to stdout as the run proceeds; the last line
//! is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ops the workload issued.
    pub attempted: u64,
    /// Ops whose outcome was wrong: a read without its key's tag, a
    /// refused write on a live shard, a shed on a live shard or a served
    /// op on a dead one, an empty dequeue.
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records a correctness check; a failed one makes the run exit 1.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    /// Records `name = value unit`, with `note` printed beside it.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: &str) {
        self.check(value.is_finite(), || format!("{name} is not finite"));
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<34} {value:>12.5e} {unit:<6} {note}");
        self.metrics.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_four_keys_and_every_metric() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("ops_per_s", 1234.5, "1/s", "");
        r.metric("setup_s", 0.25, "s", "");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        r.check(false, || "boom".into());
        assert!(!r.correct());
    }
}
