//! Metric names, units and the output schema. The two tables here are
//! the benchmark's contract: `BENCHMARK.json` lists exactly these names,
//! and the smoke test holds the two in step.

use muppet_core::json::Json;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value }
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Lower => "lower",
            Higher => "higher",
        }
    }
}

/// ⟨name, unit, better, bound⟩: the bound is the share of the parent's
/// median by which the metric may worsen before a change is a regression.
pub type Bounded = (&'static str, &'static str, Better, f64);
/// ⟨name, unit, better⟩ of a metric that carries no bound.
pub type Advisory = (&'static str, &'static str, Better);

/// End-to-end metrics, printed by an untraced run. The bounds are set from
/// the spreads the README records.
pub const END_TO_END: &[Bounded] = &[
    ("setup_s", "s", Lower, 0.25),
    ("disk_bytes_per_event", "B", Lower, 0.05),
    ("lat_p50_us", "us", Lower, 0.25),
    ("sustained_events_per_s", "events/s", Higher, 0.25),
];

/// End-to-end metrics that did not repeat within 10 % at definition time
/// (README, "Demotions"). They are measured exactly as defined, but carry
/// no bound: the traced run reports them beside the per-layer metrics.
pub const DEMOTED: &[Advisory] = &[
    ("flood_events_per_s", "events/s", Higher),
    ("cpu_us_per_event", "us", Lower),
    ("checkpoint_s", "s", Lower),
    ("lat_p99_us", "us", Lower),
    ("lat_p99_us.peak", "us", Lower),
    ("read_p50_us", "us", Lower),
    ("read_p99_us", "us", Lower),
];

/// Per-layer metrics, printed by a traced run (after [`DEMOTED`]).
pub const PER_LAYER: &[Advisory] = &[
    ("gen.late_p99_us", "us", Lower),
    ("gen.cpu_share", "%", Lower),
    ("ingest.submit_ns_per_event", "ns", Lower),
    ("ingest.throttle_waits", "count", Lower),
    ("ingestlog.records", "count", Lower),
    ("ingestlog.syncs", "count", Lower),
    ("ingestlog.events_per_sync", "events", Higher),
    ("ingestlog.append_ns_per_event", "ns", Lower),
    ("ingestlog.bytes_per_event", "B", Lower),
    ("queue.push_pop_ns", "ns", Lower),
    ("queue.drain_batch_mean", "events", Higher),
    ("queue.wait_p50_us", "us", Lower),
    ("queue.wait_p99_us", "us", Lower),
    ("queue.pending_max", "events", Lower),
    ("queue.backlog_slope", "events/s", Lower),
    ("dispatch.route_ns", "ns", Lower),
    ("dispatch.combined_events", "count", Higher),
    ("dispatch.fold_ratio", "%", Higher),
    ("dispatch.split_keys_active", "count", Higher),
    ("dispatch.forwarded", "count", Lower),
    ("op.map.calls", "count", Lower),
    ("op.map.ns_per_call", "ns", Lower),
    ("op.map.emits_per_call", "events", Lower),
    ("op.update.calls", "count", Lower),
    ("op.update.ns_per_call", "ns", Lower),
    ("op.busy_share", "%", Lower),
    ("transit.first_p50_us", "us", Lower),
    ("transit.first_p99_us", "us", Lower),
    ("transit.hop_p50_us", "us", Lower),
    ("transit.hop_p99_us", "us", Lower),
    ("cache.hits", "count", Higher),
    ("cache.misses", "count", Lower),
    ("cache.hit_ratio", "%", Higher),
    ("cache.miss_coalesced", "count", Higher),
    ("cache.evictions", "count", Lower),
    ("cache.store_loads", "count", Lower),
    ("cache.store_round_trips", "count", Lower),
    ("cache.flush_writes", "count", Lower),
    ("cache.flush_batch_mean", "slates", Higher),
    ("cache.dirty_max", "slates", Lower),
    ("cache.hit_ns", "ns", Lower),
    ("cache.miss_ns", "ns", Lower),
    ("slate.parses_per_event", "1/event", Lower),
    ("slate.serializations_per_event", "1/event", Lower),
    ("codec.json_parse_ns", "ns", Lower),
    ("codec.json_write_ns", "ns", Lower),
    ("codec.mbf_encode_ns", "ns", Lower),
    ("codec.mbf_decode_ns", "ns", Lower),
    ("codec.payload_bytes_json", "B", Lower),
    ("codec.payload_bytes_mbf", "B", Lower),
    ("net.frames_sent", "count", Lower),
    ("net.batches_sent", "count", Lower),
    ("net.events_per_batch", "events", Higher),
    ("net.remote_share", "%", Lower),
    ("net.queue_full_waits", "count", Lower),
    ("net.send_failures", "count", Lower),
    ("net.outbound_backlog_max", "events", Lower),
    ("net.encode_ns_per_event", "ns", Lower),
    ("net.decode_ns_per_event", "ns", Lower),
    ("net.wire_bytes_per_event", "B", Lower),
    ("net.wire_ns_per_event", "ns", Lower),
    ("store.put_many_ns_per_slate", "ns", Lower),
    ("store.get_ns", "ns", Lower),
    ("store.wal_syncs", "count", Lower),
    ("store.bytes_at_rest", "B", Lower),
    ("store.flush_p50_us", "us", Lower),
    ("netstore.round_trip_us", "us", Lower),
    ("checkpoint.dirty_flushed", "slates", Lower),
    ("checkpoint.drain_s", "s", Lower),
    ("checkpoint.flush_s", "s", Lower),
    ("http.reads", "count", Higher),
    ("http.read_errors", "count", Lower),
    ("http.read_local_p50_us", "us", Lower),
    ("http.read_remote_p50_us", "us", Lower),
    ("obs.snapshot_ms", "ms", Lower),
    ("trace.overhead_pct", "%", Lower),
    ("proc.cpu_user_s", "s", Lower),
    ("proc.cpu_sys_s", "s", Lower),
    ("proc.ctx_switches_invol", "count", Lower),
    ("proc.rss_peak_mb", "MB", Lower),
    ("proc.threads", "count", Lower),
    ("reference.events_per_s", "events/s", Higher),
    ("ledger.accounted_share", "%", Higher),
];

/// What one `run` produced.
pub struct Outcome {
    pub workload: &'static str,
    pub traced: bool,
    /// Every metric this run measured, in no particular order.
    pub metrics: Vec<Metric>,
    /// Source events + reads + verified keys.
    pub attempted: u64,
    /// Lost or errored events, deliveries and reads beyond the latency
    /// limit, failed reads, keys that differ from the reference.
    pub failed: u64,
    /// Human-readable lines for stderr: sample counts, ledger, notes.
    pub notes: Vec<String>,
    pub stamp: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The metrics this run owes its caller, in table order: the
    /// end-to-end set untraced, the demoted and per-layer sets traced.
    pub fn contract_metrics(&self) -> Result<Vec<&Metric>, String> {
        let declared: Vec<(&str, &str)> = if self.traced {
            DEMOTED.iter().chain(PER_LAYER).map(|m| (m.0, m.1)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1)).collect()
        };
        declared
            .into_iter()
            .map(|(name, unit)| {
                let m = self.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
                if m.unit != unit {
                    return Err(format!("metric {name} is in {} but declared in {unit}", m.unit));
                }
                if !m.value.is_finite() {
                    return Err(format!("metric {name} is not a finite number"));
                }
                Ok(m)
            })
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> Result<String, String> {
        let metrics = self.contract_metrics()?.into_iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
            )
        });
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted.max(1) as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_compact())
    }

    /// The full human-readable report (stderr).
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} ({}) ==\nstamp {}\n",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.stamp.to_compact()
        );
        let mut metrics: Vec<&Metric> = self.metrics.iter().collect();
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        for m in metrics {
            out.push_str(&format!("  {:<34} {:>16.3} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!("  ops_attempted {}  ops_failed {}\n", self.attempted, self.failed));
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }
}

/// `BENCHMARK.json`, generated from the tables above and the workload
/// specs so that the file and the program cannot drift (`e2e manifest`;
/// the smoke test compares the two).
pub fn manifest(run_seconds: f64) -> String {
    let workloads = crate::spec::WORKLOADS.iter().map(|w| {
        let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        Json::obj([("name", Json::str(w.name)), ("why", Json::str(why))])
    });
    let end_to_end = END_TO_END.iter().map(|(name, unit, better, bound)| {
        Json::obj([
            ("name", Json::str(*name)),
            ("unit", Json::str(*unit)),
            ("better", Json::str(better.as_str())),
            ("bound", Json::num(*bound)),
        ])
    });
    let per_layer = DEMOTED.iter().chain(PER_LAYER).map(|(name, unit, better)| {
        Json::obj([
            ("name", Json::str(*name)),
            ("unit", Json::str(*unit)),
            ("better", Json::str(better.as_str())),
        ])
    });
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "crates/bench/src/bin/e2e/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        ("command", Json::arr(command.map(Json::str))),
        ("paths", Json::arr([Json::str("crates/bench/src/bin/e2e")])),
        ("run_seconds", Json::num(run_seconds)),
        ("workloads", Json::arr(workloads)),
        ("end_to_end", Json::arr(end_to_end)),
        ("per_layer", Json::arr(per_layer)),
    ])
    .to_pretty()
        + "\n"
}
