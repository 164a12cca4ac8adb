//! The metric names, units and the result a workload hands back.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("query_s", "s"),
    ("ops_per_s", "1/s"),
    ("comm_mb", "MB"),
    ("total_comm_mb", "MB"),
    ("super_rounds", "count"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("inputs.generate_s", "s"),
    ("inputs.build_s", "s"),
    ("inputs.oracle_s", "s"),
    ("shape.derive_s", "s"),
    ("shape.planned_ands", "count"),
    ("shape.planned_circuits", "count"),
    ("shape.ot_budget", "count"),
    ("shape.kkrt_budget", "count"),
    ("session.bootstrap_s.alice", "s"),
    ("session.bootstrap_s.bob", "s"),
    ("session.bootstrap_bytes", "B"),
    ("protocol.busy_s.alice", "s"),
    ("protocol.busy_s.bob", "s"),
    ("protocol.peer_wait_s", "s"),
    ("protocol.runqueue_wait_s", "s"),
    ("preproc.offline_s", "s"),
    ("preproc.online_s", "s"),
    ("preproc.offline_super_rounds", "count"),
    ("preproc.online_super_rounds", "count"),
    ("preproc.banked_ots", "count"),
    ("preproc.banked_kkrt", "count"),
    ("preproc.banked_circuits", "count"),
    ("preproc.split_bytes_ratio", "ratio"),
    ("server.pool_hit_ratio", "ratio"),
    ("server.pool_left", "count"),
    ("transport.frames", "count"),
    ("transport.msgs_per_frame", "ratio"),
    ("transport.bytes_a2b", "B"),
    ("transport.bytes_b2a", "B"),
    ("transport.super_rounds", "count"),
    ("gc.ands_per_s", "AND/s"),
    ("ot.ns_per_banked_ot", "ns"),
    ("kkrt.ns_per_instance", "ns"),
    ("trace.root_self_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: timed queries or sessions, plus the traced
    /// run's probes that produce a checked result.
    pub attempted: u64,
    /// Operations that failed: a typed error, a panic, or a result that
    /// disagrees with the plaintext oracle.
    pub failed: u64,
    /// False when a result disagreed with the oracle or a deterministic
    /// count changed between identical operations.
    pub wrong: bool,
    /// Why operations failed, or which counts disagreed.
    pub errors: Vec<String>,
    /// Values of `END_TO_END` or `PER_LAYER`, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further figures printed for reading, not gated: the
    /// workload-specific metrics and sample counts.
    pub info: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push((name.to_string(), value, unit));
    }

    /// Count one operation and its outcome; `Some(error)` is a failure.
    pub fn record(&mut self, outcome: Option<String>) {
        self.attempted += 1;
        if let Some(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// A result that disagrees with the oracle: a failure and a wrong run.
    pub fn mismatch(&mut self, what: String) {
        self.wrong = true;
        self.record(Some(what));
    }

    /// A deterministic count that differs between identical operations.
    pub fn nondeterministic(&mut self, what: String) {
        self.wrong = true;
        self.errors.push(what);
    }
}

/// Check that every operation read the same value of a count that depends
/// only on the public shape.
pub fn check_same(report: &mut Report, what: &str, values: &[u64]) {
    if let Some(first) = values.first() {
        if values.iter().any(|v| v != first) {
            report.nondeterministic(format!(
                "{what} differs between identical operations: {values:?}"
            ));
        }
    }
}
