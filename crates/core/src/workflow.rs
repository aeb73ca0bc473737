//! Workflow graphs — "a MapUpdate application is a workflow of map and
//! update functions ... modeled as a directed graph (allowing cycles), whose
//! nodes represent map and update functions, and whose edges represent
//! streams" (§3, Figure 1).

use crate::error::{Error, Result};
use crate::event::StreamId;
use crate::hash::{FxHashMap, FxHashSet};

/// Index of an operator within its [`Workflow`]. Stable for the lifetime of
/// the workflow; used as the deterministic delivery order for operators
/// subscribed to the same stream.
pub type OpId = usize;

/// Whether an operator node is a map or an update function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Stateless mapper.
    Map,
    /// Stateful updater (owns slates).
    Update,
}

/// Declaration of one operator node in the workflow graph.
#[derive(Clone, Debug)]
pub struct OpDecl {
    /// Unique operator name (e.g. `"M1"`, `"hot-topic-updater"`).
    pub name: String,
    /// Map or update.
    pub kind: OpKind,
    /// Streams this operator subscribes to (≥ 1).
    pub subscribes: Vec<StreamId>,
    /// Streams this operator declares it publishes to. Declarative: used for
    /// graph rendering and cycle analysis. Publishing to undeclared internal
    /// streams at runtime is still legal (the paper's `publish` takes any
    /// stream name), but publishing to *external* streams never is.
    pub publishes: Vec<StreamId>,
    /// Slate TTL in seconds (updaters only); `None` = keep forever (§4.2).
    pub ttl_secs: Option<u64>,
}

/// A validated MapUpdate application graph.
#[derive(Clone, Debug)]
pub struct Workflow {
    name: String,
    streams: Vec<StreamId>,
    external: FxHashSet<StreamId>,
    ops: Vec<OpDecl>,
    by_name: FxHashMap<String, OpId>,
    subscribers: FxHashMap<StreamId, Vec<OpId>>,
}

impl Workflow {
    /// Start building a workflow.
    pub fn builder(name: impl Into<String>) -> WorkflowBuilder {
        WorkflowBuilder {
            name: name.into(),
            streams: Vec::new(),
            external: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All declared streams, in declaration order.
    pub fn streams(&self) -> &[StreamId] {
        &self.streams
    }

    /// Whether `stream` is declared at all.
    pub fn has_stream(&self, stream: &str) -> bool {
        self.streams.iter().any(|s| s.as_str() == stream)
    }

    /// Whether `stream` is an external input (e.g. the Twitter Firehose).
    /// Operators must not publish into external streams (§5).
    pub fn is_external(&self, stream: &str) -> bool {
        self.external.contains(stream)
    }

    /// All operator declarations, indexed by [`OpId`].
    pub fn ops(&self) -> &[OpDecl] {
        &self.ops
    }

    /// Operator by id.
    pub fn op(&self, id: OpId) -> &OpDecl {
        &self.ops[id]
    }

    /// Operator id by name.
    pub fn op_id(&self, name: &str) -> Option<OpId> {
        self.by_name.get(name).copied()
    }

    /// Ids of operators subscribed to `stream`, in ascending [`OpId`] order
    /// (the deterministic delivery order).
    pub fn subscribers_of(&self, stream: &str) -> &[OpId] {
        self.subscribers.get(stream).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if the *declared* publish edges admit a cycle (op → stream →
    /// op → ...). Cycles are legal in MapUpdate — output timestamps strictly
    /// exceed input timestamps, so executions stay well-defined — but
    /// engines use this to enable loop budgets.
    pub fn has_declared_cycle(&self) -> bool {
        // DFS with colors over operator nodes; edges via declared publishes.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.ops.len()];
        fn visit(wf: &Workflow, id: OpId, color: &mut [Color]) -> bool {
            color[id] = Color::Gray;
            for stream in &wf.ops[id].publishes {
                for &next in wf.subscribers_of(stream.as_str()) {
                    match color[next] {
                        Color::Gray => return true,
                        Color::White => {
                            if visit(wf, next, color) {
                                return true;
                            }
                        }
                        Color::Black => {}
                    }
                }
            }
            color[id] = Color::Black;
            false
        }
        (0..self.ops.len()).any(|id| color[id] == Color::White && visit(self, id, &mut color))
    }

    /// Render the workflow as Graphviz DOT (the shape of Figure 1).
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{}\" {{\n  rankdir=LR;\n", self.name));
        for s in &self.streams {
            let shape =
                if self.is_external(s.as_str()) { "ellipse, style=bold" } else { "ellipse" };
            out.push_str(&format!("  \"{s}\" [shape={shape}];\n"));
        }
        for op in &self.ops {
            let shape = match op.kind {
                OpKind::Map => "box",
                OpKind::Update => "box, peripheries=2",
            };
            out.push_str(&format!("  \"{}\" [shape={shape}];\n", op.name));
            for s in &op.subscribes {
                out.push_str(&format!("  \"{s}\" -> \"{}\";\n", op.name));
            }
            for s in &op.publishes {
                out.push_str(&format!("  \"{}\" -> \"{s}\";\n", op.name));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Incremental builder for [`Workflow`]. Collects declarations; `build`
/// validates the whole graph at once.
#[derive(Debug)]
pub struct WorkflowBuilder {
    name: String,
    streams: Vec<String>,
    external: Vec<String>,
    ops: Vec<OpDecl>,
}

impl WorkflowBuilder {
    /// Declare an external input stream (events enter only from outside).
    pub fn external_stream(&mut self, name: &str) -> &mut Self {
        self.external.push(name.to_string());
        self.streams.push(name.to_string());
        self
    }

    /// Declare an internal stream (operators publish into it).
    pub fn stream(&mut self, name: &str) -> &mut Self {
        self.streams.push(name.to_string());
        self
    }

    /// Declare a map function subscribed to `subscribes`.
    pub fn mapper(&mut self, name: &str, subscribes: &[&str]) -> &mut Self {
        self.op(name, OpKind::Map, subscribes, &[], None)
    }

    /// Declare a map function with declared output streams (auto-declares
    /// unknown output streams as internal).
    pub fn mapper_publishing(
        &mut self,
        name: &str,
        subscribes: &[&str],
        publishes: &[&str],
    ) -> &mut Self {
        self.op(name, OpKind::Map, subscribes, publishes, None)
    }

    /// Declare an update function subscribed to `subscribes`.
    pub fn updater(&mut self, name: &str, subscribes: &[&str]) -> &mut Self {
        self.op(name, OpKind::Update, subscribes, &[], None)
    }

    /// Declare an update function with declared output streams.
    pub fn updater_publishing(
        &mut self,
        name: &str,
        subscribes: &[&str],
        publishes: &[&str],
    ) -> &mut Self {
        self.op(name, OpKind::Update, subscribes, publishes, None)
    }

    /// Declare an update function with a slate TTL (§4.2's per-update-
    /// function TTL configuration).
    pub fn updater_with_ttl(
        &mut self,
        name: &str,
        subscribes: &[&str],
        ttl_secs: u64,
    ) -> &mut Self {
        self.op(name, OpKind::Update, subscribes, &[], Some(ttl_secs))
    }

    fn op(
        &mut self,
        name: &str,
        kind: OpKind,
        subscribes: &[&str],
        publishes: &[&str],
        ttl_secs: Option<u64>,
    ) -> &mut Self {
        for p in publishes {
            if !self.streams.iter().any(|s| s == p) {
                self.streams.push(p.to_string());
            }
        }
        self.ops.push(OpDecl {
            name: name.to_string(),
            kind,
            subscribes: subscribes.iter().map(|s| StreamId::from(*s)).collect(),
            publishes: publishes.iter().map(|s| StreamId::from(*s)).collect(),
            ttl_secs,
        });
        self
    }

    /// Validate and freeze the workflow.
    pub fn build(&self) -> Result<Workflow> {
        if self.external.is_empty() {
            return Err(Error::Workflow("at least one external stream is required".into()));
        }
        let mut seen_streams: FxHashSet<&str> = FxHashSet::default();
        for s in &self.streams {
            if !seen_streams.insert(s) {
                return Err(Error::Workflow(format!("duplicate stream declaration: {s}")));
            }
        }
        let mut by_name: FxHashMap<String, OpId> = FxHashMap::default();
        for (id, op) in self.ops.iter().enumerate() {
            if by_name.insert(op.name.clone(), id).is_some() {
                return Err(Error::Workflow(format!("duplicate operator name: {}", op.name)));
            }
            if op.subscribes.is_empty() {
                return Err(Error::Workflow(format!(
                    "operator {} subscribes to no streams",
                    op.name
                )));
            }
            if op.kind == OpKind::Map && op.ttl_secs.is_some() {
                return Err(Error::Workflow(format!("mapper {} cannot have a slate TTL", op.name)));
            }
            for s in &op.subscribes {
                if !self.streams.iter().any(|d| d == s.as_str()) {
                    return Err(Error::Workflow(format!(
                        "operator {} subscribes to undeclared stream {s}",
                        op.name
                    )));
                }
            }
            for s in &op.publishes {
                if self.external.iter().any(|e| e == s.as_str()) {
                    return Err(Error::Workflow(format!(
                        "operator {} publishes to external stream {s}",
                        op.name
                    )));
                }
            }
        }
        if self.ops.is_empty() {
            return Err(Error::Workflow("workflow has no operators".into()));
        }

        let streams: Vec<StreamId> =
            self.streams.iter().map(|s| StreamId::from(s.as_str())).collect();
        let external: FxHashSet<StreamId> =
            self.external.iter().map(|s| StreamId::from(s.as_str())).collect();
        let mut subscribers: FxHashMap<StreamId, Vec<OpId>> = FxHashMap::default();
        for (id, op) in self.ops.iter().enumerate() {
            for s in &op.subscribes {
                subscribers.entry(s.clone()).or_default().push(id);
            }
        }
        for subs in subscribers.values_mut() {
            subs.sort_unstable();
            subs.dedup();
        }
        Ok(Workflow {
            name: self.name.clone(),
            streams,
            external,
            ops: self.ops.clone(),
            by_name,
            subscribers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1(b): S1 → M1 → S2 → U1.
    fn retailer_workflow() -> Workflow {
        let mut b = Workflow::builder("retailer-count");
        b.external_stream("S1");
        b.mapper_publishing("M1", &["S1"], &["S2"]);
        b.updater("U1", &["S2"]);
        b.build().unwrap()
    }

    #[test]
    fn figure_1b_shape() {
        let wf = retailer_workflow();
        assert_eq!(wf.name(), "retailer-count");
        assert!(wf.is_external("S1"));
        assert!(!wf.is_external("S2"));
        assert_eq!(wf.subscribers_of("S1"), &[0]);
        assert_eq!(wf.subscribers_of("S2"), &[1]);
        assert_eq!(wf.op(0).kind, OpKind::Map);
        assert_eq!(wf.op(1).kind, OpKind::Update);
        assert_eq!(wf.op_id("U1"), Some(1));
        assert_eq!(wf.op_id("nope"), None);
        assert!(!wf.has_declared_cycle());
    }

    #[test]
    fn figure_1c_three_stage_pipeline() {
        // S1 → M1 → S2 → U1 → S3 → U2 → S4 (output).
        let mut b = Workflow::builder("hot-topics");
        b.external_stream("S1");
        b.mapper_publishing("M1", &["S1"], &["S2"]);
        b.updater_publishing("U1", &["S2"], &["S3"]);
        b.updater_publishing("U2", &["S3"], &["S4"]);
        let wf = b.build().unwrap();
        assert_eq!(wf.subscribers_of("S3"), &[2]);
        assert!(wf.subscribers_of("S4").is_empty(), "S4 is the output stream");
        assert!(!wf.has_declared_cycle());
    }

    #[test]
    fn cycles_are_allowed_and_detected() {
        // U1 republishes into its own input (legal: §5 discusses exactly
        // this updater-feeding-itself scenario).
        let mut b = Workflow::builder("looper");
        b.external_stream("S1");
        b.updater_publishing("U1", &["S1", "S2"], &["S2"]);
        let wf = b.build().unwrap();
        assert!(wf.has_declared_cycle());
    }

    #[test]
    fn multi_stream_subscription() {
        // §3's example: one map subscribed to two streams.
        let mut b = Workflow::builder("merge");
        b.external_stream("S1");
        b.external_stream("S2");
        b.mapper("M", &["S1", "S2"]);
        let wf = b.build().unwrap();
        assert_eq!(wf.subscribers_of("S1"), wf.subscribers_of("S2"));
    }

    #[test]
    fn rejects_publish_to_external() {
        let mut b = Workflow::builder("bad");
        b.external_stream("S1");
        b.mapper_publishing("M1", &["S1"], &["S1"]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, Error::Workflow(_)), "{err}");
    }

    #[test]
    fn rejects_duplicate_names_and_streams() {
        let mut b = Workflow::builder("bad");
        b.external_stream("S1");
        b.mapper("M1", &["S1"]);
        b.updater("M1", &["S1"]);
        assert!(b.build().is_err());

        let mut b2 = Workflow::builder("bad2");
        b2.external_stream("S1");
        b2.stream("S1");
        b2.mapper("M", &["S1"]);
        assert!(b2.build().is_err());
    }

    #[test]
    fn rejects_unknown_subscription_and_empty_graphs() {
        let mut b = Workflow::builder("bad");
        b.external_stream("S1");
        b.mapper("M1", &["S9"]);
        assert!(b.build().is_err());

        let mut b2 = Workflow::builder("empty");
        b2.external_stream("S1");
        assert!(b2.build().is_err());

        let b3 = Workflow::builder("no-input");
        assert!(b3.build().is_err());
    }

    #[test]
    fn rejects_mapper_ttl_and_subscriptionless_ops() {
        let mut b = Workflow::builder("bad");
        b.external_stream("S1");
        b.op("M1", OpKind::Map, &["S1"], &[], Some(60));
        assert!(b.build().is_err());

        let mut b2 = Workflow::builder("bad2");
        b2.external_stream("S1");
        b2.mapper("M1", &[]);
        assert!(b2.build().is_err());
    }

    #[test]
    fn publish_auto_declares_internal_streams() {
        let wf = retailer_workflow();
        assert!(wf.has_stream("S2"));
        assert!(!wf.is_external("S2"));
    }

    #[test]
    fn updater_ttl_carried_through() {
        let mut b = Workflow::builder("ttl");
        b.external_stream("S1");
        b.updater_with_ttl("U1", &["S1"], 86_400);
        let wf = b.build().unwrap();
        assert_eq!(wf.op(0).ttl_secs, Some(86_400));
    }

    #[test]
    fn dot_rendering_mentions_every_node() {
        let wf = retailer_workflow();
        let dot = wf.to_dot();
        for name in ["S1", "S2", "M1", "U1"] {
            assert!(dot.contains(name), "missing {name} in:\n{dot}");
        }
        assert!(dot.contains("digraph"));
        assert!(dot.contains("peripheries=2"), "updaters render doubled");
    }

    #[test]
    fn subscriber_order_is_op_id_order() {
        let mut b = Workflow::builder("fanout");
        b.external_stream("S1");
        b.updater("U2", &["S1"]);
        b.mapper("M1", &["S1"]);
        b.updater("U1", &["S1"]);
        let wf = b.build().unwrap();
        assert_eq!(wf.subscribers_of("S1"), &[0, 1, 2], "delivery order is declaration order");
    }
}
