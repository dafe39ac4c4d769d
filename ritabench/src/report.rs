//! The result of one workload run and its printed forms.

use std::fmt::Write;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: String,
    /// Number of samples the value summarises.
    pub samples: usize,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: impl Into<String>,
        samples: usize,
    ) -> Self {
        Self { name: name.into(), value, unit: unit.into(), samples }
    }
}

/// Everything one workload run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output matched its reference and every check held.
    pub correct: bool,
    /// Operations attempted (training steps or requests).
    pub attempted: u64,
    /// Operations that failed, were shed, or answered wrongly.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Free-form lines printed with the result.
    pub notes: Vec<String>,
    /// Per-epoch training losses (`train_long` only), compared bit for bit between
    /// the traced and untraced runs.
    pub losses: Vec<f32>,
}

impl Outcome {
    /// An outcome with its ops accounting; `correct` starts false.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self { attempted, failed, ..Self::default() }
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, m: Metric) {
        self.e2e.push(m);
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, m: Metric) {
        self.layers.push(m);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Looks up an end-to-end metric by name.
    pub fn e2e_value(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Human-readable lines: every metric with unit and sample count, then the notes.
    pub fn human(&self, workload: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "[{workload}] correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        for (kind, list) in [("e2e", &self.e2e), ("layer", &self.layers)] {
            for m in list {
                let _ = writeln!(
                    s,
                    "[{workload}] {kind:<5} {:<32} {:>14.6} {:<6} (n={})",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        for n in &self.notes {
            let _ = writeln!(s, "[{workload}] note  {n}");
        }
        s
    }

    /// Looks up a per-layer metric by name.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The one-line JSON result over `(name, unit, value)` rows. A metric the workload
    /// does not measure (`None`) reads 0; a non-finite value makes the result incorrect.
    pub fn json(&self, rows: &[(&str, &str, Option<f64>)]) -> String {
        let mut correct = self.correct;
        let mut metrics = Vec::with_capacity(rows.len());
        for &(name, unit, value) in rows {
            let value = match value {
                Some(v) if !v.is_finite() => {
                    correct = false;
                    0.0
                }
                v => v.unwrap_or(0.0),
            };
            metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_row_order_and_every_digit() {
        let mut o = Outcome::new(10, 1);
        o.correct = true;
        let j = o.json(&[
            ("a", "s", Some(2.0)),
            ("b", "ms", Some(0.123456789012)),
            ("c", "count", None),
        ]);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"a\": {\"value\": 2.0, \"unit\": \"s\"}, \
             \"b\": {\"value\": 0.123456789012, \"unit\": \"ms\"}, \
             \"c\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
        assert!(o.json(&[("b", "ms", Some(f64::NAN))]).starts_with("{\"correct\": false"));
    }
}
