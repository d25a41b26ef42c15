//! The metric catalogue and one invocation's outcome.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; a test keeps the two in step.

use crate::measure::Reps;
use std::collections::BTreeMap;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["suite", "vm-cotenant", "fleet-churn"];

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Dotted name; the prefix of a per-layer metric names its layer.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// Metrics of untraced runs (`--trace 0`), reported by every workload.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::Lower;
    vec![
        def("wall_ref", "ref", Lower),
        def("cpu_ref", "ref", Lower),
        def("setup_s", "s", Lower),
        def("peak_rss_mb", "MiB", Lower),
    ]
}

/// Metrics of traced runs (`--trace 1`). Every workload reports all of
/// them; a layer the workload does not reach reads 0.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = vec![
        def("run.wall_s", "s", Lower),
        def("run.sim_rate", "s/s", Higher),
        def("run.span_overhead_frac", "ratio", Lower),
        def("experiments.busy_frac", "ratio", Higher),
        def("experiments.idle_s", "s", Lower),
    ];
    for job in experiments::runner::registry() {
        v.push(def(
            format!("experiments.job.{}.cpu_s", job.name),
            "s",
            Lower,
        ));
    }
    v.extend([
        def("hostsim.events", "count", Lower),
        def("hostsim.self_s", "s", Lower),
        def("hostsim.ns_per_event", "ns", Lower),
        def("hostsim.llc_advance_ns", "ns", Lower),
        def("guestos.pelt_update_ns", "ns", Lower),
        def("guestos.context_switches", "count", Lower),
        def("guestos.wake_migrations", "count", Lower),
        def("guestos.balance_migrations", "count", Lower),
        def("guestos.resched_ipis", "count", Lower),
        def("guestos.ivh_complete_frac", "ratio", Higher),
        def("vsched.hook_self_s", "s", Lower),
        def("vsched.hook_calls", "count", Lower),
        def("vsched.select_cpu_s", "s", Lower),
        def("vsched.on_tick_s", "s", Lower),
        def("vsched.on_timer_s", "s", Lower),
        def("vsched.vcap_err_pct", "%", Lower),
        def("vsched.vcap_default_err_pct", "%", Lower),
        def("workloads.callback_self_s", "s", Lower),
        def("workloads.callbacks", "count", Lower),
        def("trace.events", "count", Lower),
        def("trace.overhead_frac", "ratio", Lower),
        def("fleet.place_s", "s", Lower),
        def("fleet.place_calls", "count", Lower),
        def("fleet.placed", "count", Higher),
        def("fleet.rejected", "count", Lower),
        def("fleet.events", "count", Lower),
        def("fleet.pool_speedup", "ratio", Higher),
    ]);
    v
}

/// What one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
    /// Checked operations (cells, repetitions, cross-run comparisons).
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Digest of the simulated outputs (the same on every repetition).
    pub digest: String,
    /// Run parameters (worker counts, scale, repetitions, sizes).
    pub meta: Vec<(&'static str, String)>,
    /// Rendered spans of the traced repetition, if any.
    pub spans: Option<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records one checked operation; `ok == false` counts it as failed
    /// and keeps `what` for the report.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Sets the end-to-end metrics: wall and CPU time in reference passes
    /// ([`Reps::per_ref`]), the median set-up seconds, and the process's
    /// peak resident set. Raw wall seconds go to the metadata.
    pub fn set_end_to_end(&mut self, reps: &Reps, setups: &[f64]) {
        let (wall, cpu) = reps.per_ref();
        self.set("wall_ref", wall);
        self.set("cpu_ref", cpu);
        self.set("setup_s", crate::measure::median(setups));
        self.set("peak_rss_mb", crate::measure::peak_rss_mb());
        self.meta("repetitions", reps.len());
        self.meta("wall_s_samples", format!("{:.4?}", reps.walls()));
    }

    /// Records a run parameter.
    pub fn meta(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }

    /// The catalogue entries this outcome reports, with their values. A
    /// per-layer metric the workload did not set reads 0; an end-to-end
    /// metric must be set.
    pub fn report(&self, traced: bool) -> Vec<(MetricDef, f64)> {
        if traced {
            per_layer()
                .into_iter()
                .map(|d| {
                    let v = self.values.get(&d.name).copied().unwrap_or(0.0);
                    (d, v)
                })
                .collect()
        } else {
            end_to_end()
                .into_iter()
                .map(|d| {
                    let v = *self
                        .values
                        .get(&d.name)
                        .unwrap_or_else(|| panic!("end-to-end metric {} not measured", d.name));
                    (d, v)
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_within_limits() {
        let e2e = end_to_end();
        let layer = per_layer();
        assert!(
            (1..=16).contains(&e2e.len()),
            "{} end-to-end metrics",
            e2e.len()
        );
        assert!(
            (1..=128).contains(&layer.len()),
            "{} per-layer metrics",
            layer.len()
        );
        let mut seen = std::collections::BTreeSet::new();
        for d in e2e.iter().chain(&layer) {
            assert!(valid_name(&d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name.clone()), "duplicate metric {}", d.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w));
        }
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn every_suite_job_has_a_cpu_metric() {
        let layer = per_layer();
        let jobs = experiments::runner::registry();
        assert_eq!(jobs.len(), 24);
        for j in jobs {
            let name = format!("experiments.job.{}.cpu_s", j.name);
            assert!(layer.iter().any(|d| d.name == name), "missing {name}");
        }
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn catalogue(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.label().to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), catalogue(end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), catalogue(per_layer()));
        let names: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads list")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn traced_report_zero_fills_layers_a_workload_bypasses() {
        let mut o = Outcome::default();
        o.set("fleet.placed", 3.0);
        let r = o.report(true);
        assert_eq!(r.len(), per_layer().len());
        let get = |n: &str| r.iter().find(|(d, _)| d.name == n).map(|x| x.1);
        assert_eq!(get("fleet.placed"), Some(3.0));
        assert_eq!(get("vsched.hook_calls"), Some(0.0));
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        o.check(false, || "digest mismatch".into());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert_eq!(o.failures, ["digest mismatch"]);
    }
}
