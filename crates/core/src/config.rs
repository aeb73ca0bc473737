//! Application configuration files.
//!
//! "To write a MapUpdate application, a developer writes the necessary map
//! and update functions, then a configuration file that includes the
//! workflow graph" (§3). The config also carries the Muppet deployment
//! knobs the paper describes: cluster size, queue limits, slate-cache size,
//! the flush interval ("immediate write-through" … "only when evicted",
//! §4.2), the store quorum (ONE/QUORUM/ALL), and per-updater TTLs.
//!
//! The file format is JSON (parsed with [`crate::json`]).

use crate::error::{Error, Result};
use crate::json::Json;
use crate::workflow::Workflow;

/// When dirty slates reach the key-value store (§4.2 "the application can
/// set the flushing interval, ranging from 'immediate write-through' to
/// 'only when evicted from cache'").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Every slate mutation writes to the store before the worker moves on.
    WriteThrough,
    /// A background flusher sweeps dirty slates every `ms` milliseconds
    /// ("a thread to provide background I/O to the durable key-value
    /// store", §4.5).
    IntervalMs(u64),
    /// Slates reach the store only when evicted (maximum write coalescing,
    /// maximum crash loss).
    OnEvict,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy::IntervalMs(100)
    }
}

/// Quorum required for one store read or write (§4.2: "any single machine
/// ... a majority of replicas ... or all of the replicas").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Consistency {
    /// Any single replica.
    One,
    /// A majority of the replica set.
    #[default]
    Quorum,
    /// Every replica.
    All,
}

impl Consistency {
    /// Acks required out of `replicas`.
    pub fn required(self, replicas: usize) -> usize {
        match self {
            Consistency::One => 1, // any single replica (replicas is validated >= 1)
            Consistency::Quorum => replicas / 2 + 1,
            Consistency::All => replicas,
        }
    }
}

/// Per-operator declaration inside the config file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpSpec {
    /// Operator name.
    pub name: String,
    /// Streams subscribed to.
    pub subscribe: Vec<String>,
    /// Streams declared as outputs.
    pub publish: Vec<String>,
    /// Slate TTL in seconds (updaters only).
    pub ttl_secs: Option<u64>,
}

/// The workflow portion of the config file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkflowSpec {
    /// External input streams.
    pub external_streams: Vec<String>,
    /// Extra internal streams (outputs are auto-declared from `publish`).
    pub streams: Vec<String>,
    /// Map functions.
    pub mappers: Vec<OpSpec>,
    /// Update functions.
    pub updaters: Vec<OpSpec>,
}

/// A full Muppet application configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct AppConfig {
    /// Application name.
    pub name: String,
    /// Number of (simulated) machines in the cluster.
    pub machines: usize,
    /// Worker threads per machine (Muppet 2.0: "as large a number of
    /// threads as the parallelization of the application code allows").
    pub workers_per_machine: usize,
    /// Per-worker input queue capacity (events); exceeding it triggers the
    /// overflow mechanism of §4.3.
    pub queue_capacity: usize,
    /// Machine-wide slate cache capacity (number of slates).
    pub slate_cache_capacity: usize,
    /// Flush policy for dirty slates.
    pub flush: FlushPolicy,
    /// Store quorum.
    pub consistency: Consistency,
    /// Store replication factor.
    pub replication: usize,
    /// The workflow graph.
    pub workflow: WorkflowSpec,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            name: "muppet-app".into(),
            machines: 4,
            workers_per_machine: 4,
            queue_capacity: 4096,
            slate_cache_capacity: 100_000,
            flush: FlushPolicy::default(),
            consistency: Consistency::default(),
            replication: 3,
            workflow: WorkflowSpec::default(),
        }
    }
}

impl AppConfig {
    /// Parse a configuration from JSON text.
    pub fn from_json_str(text: &str) -> Result<AppConfig> {
        let root = Json::parse(text)?;
        Self::from_json(&root)
    }

    /// Parse a configuration from a JSON value.
    pub fn from_json(root: &Json) -> Result<AppConfig> {
        let mut cfg = AppConfig::default();
        let obj =
            root.as_obj().ok_or_else(|| Error::Config("top level must be an object".into()))?;
        for (key, value) in obj {
            match key.as_str() {
                "name" => {
                    cfg.name = value
                        .as_str()
                        .ok_or_else(|| Error::Config("name must be a string".into()))?
                        .to_string();
                }
                "machines" => cfg.machines = usize_field(value, "machines")?,
                "workers_per_machine" => {
                    cfg.workers_per_machine = usize_field(value, "workers_per_machine")?
                }
                "queue_capacity" => cfg.queue_capacity = usize_field(value, "queue_capacity")?,
                "slate_cache_capacity" => {
                    cfg.slate_cache_capacity = usize_field(value, "slate_cache_capacity")?
                }
                "replication" => cfg.replication = usize_field(value, "replication")?,
                "flush" => cfg.flush = parse_flush(value)?,
                "consistency" => cfg.consistency = parse_consistency(value)?,
                "workflow" => cfg.workflow = parse_workflow(value)?,
                other => return Err(Error::Config(format!("unknown config key: {other}"))),
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Build the validated [`Workflow`] graph from this config.
    pub fn build_workflow(&self) -> Result<Workflow> {
        let mut b = Workflow::builder(self.name.clone());
        for s in &self.workflow.external_streams {
            b.external_stream(s);
        }
        for s in &self.workflow.streams {
            b.stream(s);
        }
        // Mappers first, then updaters: OpId order matches declaration order
        // in the config file.
        for m in &self.workflow.mappers {
            let subs: Vec<&str> = m.subscribe.iter().map(String::as_str).collect();
            let pubs: Vec<&str> = m.publish.iter().map(String::as_str).collect();
            b.mapper_publishing(&m.name, &subs, &pubs);
        }
        for u in &self.workflow.updaters {
            let subs: Vec<&str> = u.subscribe.iter().map(String::as_str).collect();
            let pubs: Vec<&str> = u.publish.iter().map(String::as_str).collect();
            b.updater_full(&u.name, &subs, &pubs, u.ttl_secs);
        }
        b.build()
    }

    fn validate(&self) -> Result<()> {
        if self.machines == 0 {
            return Err(Error::Config("machines must be >= 1".into()));
        }
        if self.workers_per_machine == 0 {
            return Err(Error::Config("workers_per_machine must be >= 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(Error::Config("queue_capacity must be >= 1".into()));
        }
        if self.replication == 0 {
            return Err(Error::Config("replication must be >= 1".into()));
        }
        Ok(())
    }
}

fn usize_field(value: &Json, name: &str) -> Result<usize> {
    value
        .as_u64()
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| Error::Config(format!("{name} must be a non-negative integer")))
}

fn parse_flush(value: &Json) -> Result<FlushPolicy> {
    let policy = value
        .get("policy")
        .and_then(Json::as_str)
        .ok_or_else(|| Error::Config("flush.policy must be a string".into()))?;
    match policy {
        "write_through" => Ok(FlushPolicy::WriteThrough),
        "on_evict" => Ok(FlushPolicy::OnEvict),
        "interval" => {
            let ms = value
                .get("ms")
                .and_then(Json::as_u64)
                .ok_or_else(|| Error::Config("flush.ms must be a non-negative integer".into()))?;
            Ok(FlushPolicy::IntervalMs(ms))
        }
        other => Err(Error::Config(format!("unknown flush policy: {other}"))),
    }
}

fn parse_consistency(value: &Json) -> Result<Consistency> {
    match value.as_str() {
        Some("one") => Ok(Consistency::One),
        Some("quorum") => Ok(Consistency::Quorum),
        Some("all") => Ok(Consistency::All),
        _ => Err(Error::Config("consistency must be one|quorum|all".into())),
    }
}

fn parse_workflow(value: &Json) -> Result<WorkflowSpec> {
    let mut spec = WorkflowSpec::default();
    let obj = value.as_obj().ok_or_else(|| Error::Config("workflow must be an object".into()))?;
    for (key, v) in obj {
        match key.as_str() {
            "external_streams" => spec.external_streams = string_list(v, "external_streams")?,
            "streams" => spec.streams = string_list(v, "streams")?,
            "mappers" => spec.mappers = op_list(v, "mappers")?,
            "updaters" => spec.updaters = op_list(v, "updaters")?,
            other => return Err(Error::Config(format!("unknown workflow key: {other}"))),
        }
    }
    Ok(spec)
}

fn string_list(value: &Json, name: &str) -> Result<Vec<String>> {
    let items = value.as_arr().ok_or_else(|| Error::Config(format!("{name} must be an array")))?;
    items
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| Error::Config(format!("{name} entries must be strings")))
        })
        .collect()
}

fn op_list(value: &Json, name: &str) -> Result<Vec<OpSpec>> {
    let items = value.as_arr().ok_or_else(|| Error::Config(format!("{name} must be an array")))?;
    items
        .iter()
        .map(|v| {
            let mut op = OpSpec::default();
            let obj = v
                .as_obj()
                .ok_or_else(|| Error::Config(format!("{name} entries must be objects")))?;
            for (key, field) in obj {
                match key.as_str() {
                    "name" => {
                        op.name = field
                            .as_str()
                            .ok_or_else(|| Error::Config("operator name must be a string".into()))?
                            .to_string()
                    }
                    "subscribe" => op.subscribe = string_list(field, "subscribe")?,
                    "publish" => op.publish = string_list(field, "publish")?,
                    "ttl_secs" => {
                        op.ttl_secs = Some(field.as_u64().ok_or_else(|| {
                            Error::Config("ttl_secs must be a non-negative integer".into())
                        })?)
                    }
                    other => return Err(Error::Config(format!("unknown operator key: {other}"))),
                }
            }
            if op.name.is_empty() {
                return Err(Error::Config(format!("{name} entry missing name")));
            }
            Ok(op)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE: &str = r#"
    {
        "name": "retailer-count",
        "machines": 3,
        "workers_per_machine": 2,
        "queue_capacity": 512,
        "slate_cache_capacity": 1000,
        "replication": 3,
        "flush": {"policy": "interval", "ms": 50},
        "consistency": "quorum",
        "workflow": {
            "external_streams": ["S1"],
            "streams": [],
            "mappers": [{"name": "M1", "subscribe": ["S1"], "publish": ["S2"]}],
            "updaters": [{"name": "U1", "subscribe": ["S2"], "ttl_secs": 86400}]
        }
    }
    "#;

    #[test]
    fn parses_full_example() {
        let cfg = AppConfig::from_json_str(EXAMPLE).unwrap();
        assert_eq!(cfg.name, "retailer-count");
        assert_eq!(cfg.machines, 3);
        assert_eq!(cfg.workers_per_machine, 2);
        assert_eq!(cfg.queue_capacity, 512);
        assert_eq!(cfg.flush, FlushPolicy::IntervalMs(50));
        assert_eq!(cfg.consistency, Consistency::Quorum);
        assert_eq!(cfg.workflow.mappers.len(), 1);
        assert_eq!(cfg.workflow.updaters[0].ttl_secs, Some(86_400));
    }

    #[test]
    fn builds_workflow_from_config() {
        let cfg = AppConfig::from_json_str(EXAMPLE).unwrap();
        let wf = cfg.build_workflow().unwrap();
        assert!(wf.is_external("S1"));
        assert!(wf.has_stream("S2"));
        assert_eq!(wf.op_id("M1"), Some(0));
        assert_eq!(wf.op_id("U1"), Some(1));
        // The config's per-updater TTL lands on the workflow declaration.
        assert_eq!(wf.op(1).ttl_secs, Some(86_400));
    }

    #[test]
    fn defaults_apply_for_missing_fields() {
        let cfg = AppConfig::from_json_str(r#"{"name": "minimal"}"#).unwrap();
        assert_eq!(cfg.machines, AppConfig::default().machines);
        assert_eq!(cfg.flush, FlushPolicy::IntervalMs(100));
    }

    #[test]
    fn flush_policy_variants() {
        for (text, want) in [
            (r#"{"flush": {"policy": "write_through"}}"#, FlushPolicy::WriteThrough),
            (r#"{"flush": {"policy": "on_evict"}}"#, FlushPolicy::OnEvict),
            (r#"{"flush": {"policy": "interval", "ms": 0}}"#, FlushPolicy::IntervalMs(0)),
        ] {
            assert_eq!(AppConfig::from_json_str(text).unwrap().flush, want, "{text}");
        }
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(AppConfig::from_json_str(r#"{"bogus": 1}"#).is_err());
        assert!(AppConfig::from_json_str(r#"{"machines": 0}"#).is_err());
        assert!(AppConfig::from_json_str(r#"{"machines": -1}"#).is_err());
        assert!(AppConfig::from_json_str(r#"{"consistency": "most"}"#).is_err());
        assert!(AppConfig::from_json_str(r#"{"flush": {"policy": "sometimes"}}"#).is_err());
        assert!(AppConfig::from_json_str(r#"{"workflow": {"mappers": [{}]}}"#).is_err());
        assert!(AppConfig::from_json_str(r#"[1,2]"#).is_err());
    }

    #[test]
    fn consistency_variants() {
        for (text, want) in [
            (r#"{"consistency": "one"}"#, Consistency::One),
            (r#"{"consistency": "quorum"}"#, Consistency::Quorum),
            (r#"{"consistency": "all"}"#, Consistency::All),
        ] {
            assert_eq!(AppConfig::from_json_str(text).unwrap().consistency, want);
        }
    }
}
