//! The benchmark's own metric store and the two outputs of a run: the
//! table a reader looks at and the one-line JSON object the driver
//! parses. Values live here, not in the `her-obs` registry, so the
//! program's metric namespace stays the program's.

use crate::names::{MetricDef, END_TO_END, INGEST_LAYER, PER_LAYER};
use std::collections::BTreeMap;

/// Metric values of one run, keyed by the names of `names.rs`.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Panics on a name missing from `names.rs`: that is a typo in this
    /// program, and a silently dropped metric would read as 0.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .chain(&INGEST_LAYER)
                .any(|d| d.name == name),
            "metric {name} is not in names.rs"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Pairs every metric of `defs` with its value. End-to-end metrics must
/// all be present and non-zero; a per-layer metric the workload does
/// not exercise reads 0.
pub fn resolve(
    defs: &[MetricDef],
    metrics: &Metrics,
    require_all: bool,
) -> Result<Vec<(MetricDef, f64)>, String> {
    defs.iter()
        .map(|d| match metrics.get(d.name) {
            Some(v) if !v.is_finite() => Err(format!("metric {} is not finite: {v}", d.name)),
            Some(v) if require_all && v == 0.0 => Err(format!("metric {} is 0", d.name)),
            Some(v) => Ok((*d, v)),
            None if require_all => Err(format!("metric {} was not measured", d.name)),
            None => Ok((*d, 0.0)),
        })
        .collect()
}

/// The human-readable table: every metric by name, with unit.
pub fn table(rows: &[(MetricDef, f64)]) -> String {
    let mut s = String::new();
    for (d, v) in rows {
        s.push_str(&format!("  {:<32} {:>16.4} {}\n", d.name, v, d.unit));
    }
    s
}

/// The driver's line: `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(rows: &[(MetricDef, f64)], attempted: u64, failed: u64) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_must_all_be_measured_and_non_zero() {
        let mut m = Metrics::default();
        for d in &END_TO_END[1..] {
            m.put(d.name, 1.5);
        }
        assert!(
            resolve(&END_TO_END, &m, true).is_err(),
            "setup_s is missing"
        );
        m.put("setup_s", 0.0);
        assert!(resolve(&END_TO_END, &m, true).is_err(), "setup_s is 0");
        m.put("setup_s", 0.25);
        let rows = resolve(&END_TO_END, &m, true).expect("all present");
        let line = json_line(&rows, 10, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", d.name)));
        }
        assert!(json_line(&rows, 10, 2).contains("\"correct\": false"));
    }

    #[test]
    fn unexercised_layers_read_zero() {
        let mut m = Metrics::default();
        m.put("core.apair_s", 2.5);
        let rows = resolve(&PER_LAYER, &m, false).expect("per-layer never fails on absence");
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows
            .iter()
            .any(|(d, v)| d.name == "core.apair_s" && *v == 2.5));
        assert!(rows
            .iter()
            .any(|(d, v)| d.name == "parallel.wall_s" && *v == 0.0));
        assert!(table(&rows).contains("core.apair_s"));
        m.put("core.vpair_us", f64::NAN);
        assert!(resolve(&PER_LAYER, &m, false).is_err());
    }
}
