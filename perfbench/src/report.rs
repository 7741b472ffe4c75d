//! The metric catalogue and the result line.
//!
//! Every run prints the whole catalogue of its kind: untraced runs the
//! end-to-end metrics, traced runs the per-layer metrics. A per-layer
//! metric of a layer the workload never enters reads 0 — the layer did no
//! work there.

use crate::layers::DutTally;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("trips_per_s", "1/s"),
    ("probes_per_trip", "probes/trip"),
    ("sim_ms_per_trip", "ms"),
    ("trusted_share", "ratio"),
    ("trip_err_p99_ns", "ns"),
    ("best_wcr", "ratio"),
    ("ate_measurements", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Must match `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dut.evals", "count"),
    ("dut.plans_built", "count"),
    ("dut.plan_eval_ratio", "ratio"),
    ("dut.self_s", "s"),
    ("dut.ns_per_eval", "ns"),
    ("dut.functional_execs", "count"),
    ("dut.functional_s", "s"),
    ("ate.measurements", "count"),
    ("ate.self_s", "s"),
    ("ate.ns_per_measurement", "ns"),
    ("search.trips", "count"),
    ("search.self_s", "s"),
    ("search.recovered", "count"),
    ("search.quarantined", "count"),
    ("wafer.touchdowns", "count"),
    ("wafer.contact_faults", "count"),
    ("wafer.unattributed_s", "s"),
    ("wafer.unattributed_share", "ratio"),
    ("stream.entries_folded", "count"),
    ("stream.self_s", "s"),
    ("journal.chunks", "count"),
    ("journal.bytes", "bytes"),
    ("spill.bytes", "bytes"),
    ("journal.self_s", "s"),
    ("telemetry.heartbeats", "count"),
    ("telemetry.bytes", "bytes"),
    ("telemetry.self_s", "s"),
    ("telemetry.overhead_pct", "%"),
    ("learning.s", "s"),
    ("learning.measurements", "count"),
    ("learning.rounds", "count"),
    ("neural.train_s", "s"),
    ("neural.propose_s", "s"),
    ("neural.candidates_screened", "count"),
    ("optimization.s", "s"),
    ("genetic.generations", "count"),
    ("genetic.evaluations", "count"),
    ("optimization.measurements_per_eval", "probes/eval"),
    ("optimization.dut_share", "ratio"),
    ("shmoo.cells", "count"),
    ("shmoo.s", "s"),
    ("shmoo.ns_per_cell", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.span_coverage", "ratio"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
];

/// Metric values one run collected, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name` (which must be in one of the catalogues).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Renders the final result line over `catalogue`. End-to-end metrics
    /// must all be present; absent per-layer metrics read 0.
    pub fn result_line(&self, traced: bool, attempted: u64) -> Result<String, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = match (self.values.get(name), traced) {
                (Some(v), _) => *v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
            parts.join(", ")
        ))
    }
}

/// A finite `f64` as a JSON number with every digit of Rust's shortest
/// round-trip form (`1e-7` and `3.0` are both valid JSON).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice — every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Prints a run's host-time samples as context beside the result line.
pub fn print_samples(name: &str, samples: &[f64]) {
    println!(
        "{name}: samples={} min={:.4e} p10={:.4e} median={:.4e} p90={:.4e} max={:.4e}",
        samples.len(),
        percentile(samples, 0.0),
        percentile(samples, 0.10),
        median(samples),
        percentile(samples, 0.90),
        percentile(samples, 1.0)
    );
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Records the DUT layer's counters and self time.
pub fn set_dut(m: &mut Metrics, tally: &DutTally, self_s: f64) {
    let evals = tally.evals().max(1) as f64;
    m.set("dut.evals", tally.evals() as f64);
    m.set("dut.plans_built", tally.plans_built() as f64);
    m.set("dut.plan_eval_ratio", tally.plan_evals() as f64 / evals);
    m.set("dut.self_s", self_s);
    m.set("dut.ns_per_eval", self_s * 1e9 / evals);
    m.set("dut.functional_execs", tally.functional_execs as f64);
    m.set("dut.functional_s", tally.functional_ns as f64 * 1e-9);
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    cichar_trace::peak_rss_bytes()
        .map(|b| b as f64 / (1024.0 * 1024.0))
        .ok_or_else(|| String::from("peak RSS unavailable (no /proc/self/status)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn json_numbers_keep_digits() {
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(1e-7), "1e-7");
        assert_eq!(json_number(3.0), "3.0");
    }

    #[test]
    fn end_to_end_requires_every_metric() {
        let mut m = Metrics::default();
        m.set("run_s", 1.0);
        assert!(m.result_line(false, 1).is_err());
        assert!(m.result_line(true, 1).is_ok());
    }
}
