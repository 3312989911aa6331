//! Metric names, units and the result line.
//!
//! The two lists below are the benchmark's contract: `BENCHMARK.json`
//! names exactly these metrics (a test checks it), an untraced run prints
//! every end-to-end metric and a traced run every per-layer metric. A
//! layer a workload does not exercise reports 0 for its metrics.

use crate::stats::max;
use episimdemics::core::distribution::DataDistribution;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, better)` of each end-to-end metric.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("s_per_day_p50", "s", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("first_point_ms_p50", "ms", "lower"),
    ("job_ms_p50", "ms", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of each per-layer metric. The `e2e.` ones are
/// end-to-end figures too noisy to gate on (see README.md); a traced run
/// reports them from its untraced units of work.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("e2e.first_day_s", "s", "lower"),
    ("e2e.s_per_day_p90", "s", "lower"),
    ("e2e.first_point_ms_p95", "ms", "lower"),
    ("e2e.job_ms_p95", "ms", "lower"),
    ("synthpop.generate_s", "s", "lower"),
    ("distribution.build_s", "s", "lower"),
    ("distribution.remote_visit_fraction", "ratio", "lower"),
    ("distribution.load_imbalance", "ratio", "lower"),
    ("simulator.new_s", "s", "lower"),
    ("simulator.person_busy_ms", "ms", "lower"),
    ("simulator.location_busy_ms", "ms", "lower"),
    ("simulator.apply_busy_ms", "ms", "lower"),
    ("simulator.unattributed_share", "ratio", "lower"),
    ("kernel.events", "count", "lower"),
    ("kernel.infects", "count", "lower"),
    ("kernel.ns_per_event", "ns", "lower"),
    ("chare-rt.msgs", "count", "lower"),
    ("chare-rt.msgs_cross_pe", "count", "lower"),
    ("chare-rt.packets", "count", "lower"),
    ("chare-rt.msgs_per_packet", "count", "higher"),
    ("chare-rt.allocs", "count", "lower"),
    ("chare-rt.alloc_bytes", "bytes", "lower"),
    ("net.frames", "count", "lower"),
    ("net.bytes", "bytes", "lower"),
    ("net.msgs_per_frame", "count", "higher"),
    ("net.flush_batch", "count", "lower"),
    ("net.flush_idle", "count", "lower"),
    ("net.flush_eager", "count", "lower"),
    ("net.agg_batch", "count", "higher"),
    ("net.shm_parks", "count", "lower"),
    ("seq.s_per_day", "s", "lower"),
    ("seq.runtime_over_oracle", "ratio", "lower"),
    ("ensemble.world_build_s", "s", "lower"),
    ("ensemble.sweep_s", "s", "lower"),
    ("ensemble.workers", "count", "higher"),
    ("serve.server_start_s", "s", "lower"),
    ("serve.submit_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_p95", "ms", "lower"),
    ("serve.job_setup_ms_p50", "ms", "lower"),
    ("serve.day_gap_ms_p50", "ms", "lower"),
    ("serve.pause_ms_p50", "ms", "lower"),
    ("serve.resume_ms_p50", "ms", "lower"),
    ("serve.lagged", "count", "lower"),
    ("serve.pool_busy_share", "ratio", "lower"),
    ("serve.generator_late_ms_max", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `why` describes it if it failed.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(why());
        }
    }

    /// Count one run whose curve hash must equal its reference.
    pub fn check_hash(&mut self, what: &str, got: u64, want: u64) {
        self.record(got == want, || {
            format!("{what}: curve hash {got:016x} != reference {want:016x}")
        });
    }
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Samples behind the latency metrics (cold starts and repetitions,
    /// sweeps, or jobs), recorded with the percentile the tail rule
    /// allows for them.
    pub samples: usize,
}

fn lookup(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map(|&(n, _, _)| n)
}

impl Report {
    /// The distribution's static quality: remote visit fraction and the
    /// busiest partition's location load over the mean (Lmax/Lavg).
    pub fn set_distribution(&mut self, dist: &DataDistribution) {
        let loads: Vec<f64> = dist.location_loads().iter().map(|&l| l as f64).collect();
        let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
        self.set("distribution.load_imbalance", max(&loads) / mean.max(1.0));
        self.set(
            "distribution.remote_visit_fraction",
            dist.remote_visit_fraction(),
        );
    }

    /// Set a metric. Panics on a name outside both lists: that is a bug
    /// in the benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let key = lookup(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values.insert(key, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// End-to-end metrics that are missing, not finite or not positive.
    pub fn bad_end_to_end(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .filter(|(n, _, _)| !self.get(n).is_some_and(|v| v.is_finite() && v > 0.0))
            .map(|(n, _, _)| *n)
            .collect()
    }

    /// The result line: the end-to-end metrics, or with `traced` the
    /// per-layer ones (unset per-layer metrics read 0).
    pub fn result_line(&self, traced: bool, tally: &Tally) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut j = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed
        );
        for (i, (name, unit, _)) in list.iter().enumerate() {
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                j,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        j.push_str("}}");
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` triples of one list in `BENCHMARK.json`,
    /// read with string search (the file is small and flat).
    fn listed(section: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = doc.find(&format!("\"{section}\"")).expect("section");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("list end")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("value") + 1;
            let close = open + rest[open..].find('"').expect("value end");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    fn ours(list: &[(&str, &str, &str)]) -> Vec<(String, String, String)> {
        list.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    /// A metric name as the result line and `BENCHMARK.json` allow it.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(*better == "lower" || *better == "higher");
        }
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(""));
        assert!(valid_name("chare-rt.msgs_per_packet"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_metric_of_its_kind() {
        let mut r = Report::default();
        for (name, _, _) in END_TO_END {
            r.set(name, 1.5);
        }
        assert!(r.bad_end_to_end().is_empty());
        let mut tally = Tally::default();
        tally.record(true, String::new);
        let line = r.result_line(false, &tally);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        for (name, unit, _) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
            )));
        }
        let traced = r.result_line(true, &tally);
        assert!(traced.contains("\"trace.overhead_share\": {\"value\": 0.0"));
        assert!(!traced.contains("setup_s"));
    }

    #[test]
    fn wrong_reference_hash_is_a_failed_operation() {
        let mut tally = Tally::default();
        tally.check_hash("run 0", 0xfeed, 0xfeed);
        tally.check_hash("run 1", 0xfeed, 0xbeef);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.notes[0].contains("run 1"));
        let line = Report::default().result_line(true, &tally);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
