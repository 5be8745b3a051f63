//! Metric collection and the one-line JSON result.

/// Metrics in the order they are printed: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric. A value that is not finite is recorded as 0 so the
    /// result line stays valid JSON; the caller's checks decide correctness.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    /// Prints a readable table, then the result object as the last line.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for (name, value, unit) in &self.0 {
            println!("{name:<32} {value:>18.6} {unit}");
        }
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
