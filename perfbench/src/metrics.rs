//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit and better direction; `BENCHMARK.json` must declare exactly the
//! same set (`tests/declared.rs` checks it). A run prints every metric of
//! its mode — the end-to-end metrics untraced, the per-layer metrics
//! traced — and [`Report::finish`] refuses to print a result with a metric
//! missing, undeclared or not finite.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, counts of work).
    Lower,
    /// Larger is better (throughput, batch fill).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("cold_s", "s", Lower),
    m("warm_cpu_s", "s", Lower),
];

/// Printed by every traced run (`--trace 1`). The `*_s` layer times of a
/// workload plus `unattributed_s` add up to `traced_total_s`.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.accesses", "count", Lower),
    m("workloads.emit_s", "s", Lower),
    m("trace.self_s", "s", Lower),
    m("trace.ns_per_access", "ns", Lower),
    m("memsys.self_s", "s", Lower),
    m("memsys.ns_per_access", "ns", Lower),
    m("features.extract_s", "s", Lower),
    m("core.profile_s", "s", Lower),
    m("dram.characterize_s", "s", Lower),
    m("dram.sim_ms_per_device_epoch", "ms", Lower),
    m("fleet.simulations", "count", Lower),
    m("fleet.extend_simulations", "count", Lower),
    m("fleet.prefix_simulations", "count", Lower),
    m("fleet.eval_s", "s", Lower),
    m("ml.train_s", "s", Lower),
    m("ml.trainings", "count", Lower),
    m("ml.eval_predict_s", "s", Lower),
    m("ml.predict_us", "us", Lower),
    m("ml.predict_1t_us", "us", Lower),
    m("store.write_s", "s", Lower),
    m("store.writes", "count", Lower),
    m("store.bytes_written", "B", Lower),
    m("store.read_s", "s", Lower),
    m("store.hits", "count", Lower),
    m("store.bytes_read", "B", Lower),
    m("serve.boot_s", "s", Lower),
    m("serve.protocol_us", "us", Lower),
    m("serve.transport_us", "us", Lower),
    m("serve.p99_ms", "ms", Lower),
    m("serve.batch_rows_mean", "rows", Higher),
    m("cpu.sys_share", "ratio", Lower),
    m("peak_rss_mib", "MiB", Lower),
    m("warm_wall_s", "s", Lower),
    m("warm_parallelism", "ratio", Higher),
    m("unattributed_s", "s", Lower),
    m("traced_total_s", "s", Lower),
    m("tracing_overhead_s", "s", Lower),
];

/// The per-layer time metrics that partition `traced_total_s`.
pub const LAYER_TIMES: &[&str] = &[
    "workloads.emit_s",
    "trace.self_s",
    "memsys.self_s",
    "features.extract_s",
    "core.profile_s",
    "dram.characterize_s",
    "fleet.eval_s",
    "ml.train_s",
    "ml.eval_predict_s",
    "store.write_s",
    "store.read_s",
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["campaign_full", "fleet"];

/// The catalogue of one mode.
pub fn catalogue(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The metrics and operation counts of one run.
#[derive(Debug)]
pub struct Report {
    traced: bool,
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (campaign cells and fold models, device-epochs,
    /// probe requests — see each workload).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Output checks that failed, by description.
    pub check_failures: Vec<String>,
}

impl Report {
    /// An empty report for one mode.
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Sets a metric of this run's mode.
    ///
    /// # Panics
    /// On a name this mode does not declare, or one set twice — both are
    /// bugs in the benchmark, not in the program under test.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalogue(self.traced).iter().any(|m| m.name == name),
            "metric {name} is not declared for this mode"
        );
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    /// Adds operations to the attempted/failed tallies.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the mode, each with its unit.
    ///
    /// # Errors
    /// A description of the first declared metric that is missing or not
    /// finite.
    pub fn finish(&self) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, metric) in catalogue(self.traced).iter().enumerate() {
            let value = *self
                .values
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", metric.name));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, value, metric.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
        ))
    }

    /// Human-readable metric lines (for standard error).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for metric in catalogue(self.traced) {
            if let Some(v) = self.values.get(metric.name) {
                let _ = writeln!(out, "  {:<30} {:>16.6} {}", metric.name, v, metric.unit);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_refuses_a_missing_metric() {
        let mut report = Report::new(false);
        report.set("setup_s", 1.0);
        assert!(report.finish().unwrap_err().contains("cold_s"));
    }

    #[test]
    fn finish_prints_every_metric_with_its_unit() {
        let mut report = Report::new(false);
        for metric in END_TO_END {
            report.set(metric.name, 0.5);
        }
        report.ops(3, 0);
        let line = report.finish().expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"warm_cpu_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn set_refuses_an_undeclared_metric() {
        Report::new(false).set("store.read_s", 1.0);
    }

    #[test]
    fn layer_times_are_declared_seconds() {
        for name in LAYER_TIMES {
            let metric = PER_LAYER
                .iter()
                .find(|m| m.name == *name)
                .expect("declared");
            assert_eq!(metric.unit, "s");
        }
    }
}
