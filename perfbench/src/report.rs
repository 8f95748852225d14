//! The metric catalogue and one run's report.

use crate::json::Json;

/// End-to-end metrics, printed by every workload in untraced runs.
/// `(name, unit)`; the definitions are in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("step_ms", "ms"),
    ("cpu_us_per_msg", "us"),
    ("msgs_per_node_s", "1/s"),
    ("kb_per_node_s", "KB/s"),
];

/// Per-layer metrics, printed by every workload in traced runs. A layer
/// the workload bypasses reports 0. `sim_s` is simulated time: it
/// repeats exactly for a seed.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("membership.bootstrap_ns_per_entry", "ns"),
    ("membership.heap_bytes_per_entry", "B"),
    ("proto.decode_ns_per_datagram", "ns"),
    ("proto.msgs_per_datagram", "count"),
    ("proto.bytes_per_datagram", "B"),
    ("driver.datagram_us_p50", "us"),
    ("driver.datagram_us_p99", "us"),
    ("driver.tick_us_p50", "us"),
    ("driver.tick_us_p99", "us"),
    ("driver.stream_us_p50", "us"),
    ("driver.stream_us_p99", "us"),
    ("driver.outputs_per_input", "count"),
    ("driver.busy_frac", "share"),
    ("sync.delta_frac", "share"),
    ("sync.kb_per_exchange", "KB"),
    ("probe.ack_frac", "share"),
    ("probe.indirect_frac", "share"),
    ("suspicion.raised_per_node_hour", "1/h"),
    ("suspicion.refuted_frac", "share"),
    ("suspicion.lifetime_s_p50", "s"),
    ("lha.lhm_peak", "count"),
    ("broadcast.queue_peak", "count"),
    ("fd.detect_s_p50", "sim_s"),
    ("fd.detect_s_p90", "sim_s"),
    ("fd.dissem_s_p50", "sim_s"),
    ("fd.fp_per_node_hour", "1/h"),
    ("fd.failed_frac", "share"),
    ("sim.build_s", "s"),
    ("sim.apply_us_p50", "us"),
    ("sim.overhead_frac", "share"),
    ("sim.slice_ms_p90", "ms"),
    ("sim.slice_ms_p99", "ms"),
    ("sim.s_per_wall_s", "s/s"),
    ("replay.msgs_ratio", "share"),
    ("reactor.wakeups_per_ping", "count"),
    ("reactor.send_syscalls_per_datagram", "count"),
    ("reactor.recv_syscalls_per_datagram", "count"),
    ("reactor.cpu_busy_frac", "share"),
    ("reactor.drops", "count"),
    ("agent.api_us_p50", "us"),
    ("agent.api_us_p99", "us"),
    ("agent.probe_rtt_us_p50", "us"),
    ("client.rtt_us_p90", "us"),
    ("client.rtt_us_p99", "us"),
    ("client.late_ms_max", "ms"),
    ("trace.overhead_frac", "share"),
    ("trace.coverage_p1", "share"),
];

/// One run's verdict and numbers.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
    // bounded: at most one entry per catalogue metric
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload-specific diagnostics for the human-readable report.
    pub notes: Json,
    /// Span dump of a traced run.
    pub spans: Option<Json>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            notes: Json::obj(),
            spans: None,
        }
    }

    /// Records a correctness check; a failed one fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.problems.push(what.into());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.notes.push(key, value);
    }

    /// Notes a timing's sample count and its highest percentile with at
    /// least ten samples beyond it.
    pub fn note_tail(&mut self, key: &str, samples: &[f64]) {
        let mut o = Json::obj();
        o.push("samples", samples.len());
        if let Some((pct, value)) = crate::stats::tail_of(samples) {
            o.push("percentile", pct).push("value", value);
        }
        self.notes.push(key, o);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// (untraced) or every per-layer metric (traced). A missing
    /// end-to-end metric or a non-finite value fails the run.
    pub fn metrics_json(&mut self, traced: bool) -> Json {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut out = Json::obj();
        for &(name, unit) in catalogue {
            let value = match self.value(name) {
                Some(v) if v.is_finite() => v,
                Some(_) => {
                    self.check(false, format!("{name} is not finite"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.check(false, format!("{name} was not measured"));
                    0.0
                }
            };
            let mut m = Json::obj();
            m.push("value", value).push("unit", unit);
            out.push(name, m);
        }
        out
    }

    /// The result line: the last line the benchmark prints.
    pub fn result_line(&mut self, traced: bool) -> String {
        let metrics = self.metrics_json(traced);
        let mut o = Json::obj();
        o.push("correct", self.correct)
            .push("attempted", self.attempted.max(1))
            .push("failed", self.failed)
            .push("metrics", metrics);
        o.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                    _ => panic!("malformed metric in {key}"),
                })
                .collect()
        };
        let ours = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn result_line_round_trips_and_flags_missing_metrics() {
        let mut r = Report::new();
        r.attempted = 10;
        r.failed = 1;
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.result_line(false);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("failed"), Some(&Json::Int(1)));
        let Some(Json::Obj(ms)) = v.get("metrics") else {
            panic!()
        };
        assert_eq!(ms.len(), END_TO_END.len());

        let mut r = Report::new();
        r.set("setup_s", 1.0);
        let v = Json::parse(&r.result_line(false)).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("attempted"),
            Some(&Json::Int(1)),
            "attempted is at least 1"
        );
    }

    #[test]
    fn traced_runs_report_bypassed_layers_as_zero() {
        let mut r = Report::new();
        let v = Json::parse(&r.result_line(true)).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(ms)) = v.get("metrics") else {
            panic!()
        };
        assert_eq!(ms.len(), PER_LAYER.len());
    }
}
