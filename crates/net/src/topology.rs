//! The cluster's node table, and a node's view of the cluster: which
//! machines exist, where they listen, which runs the master (failure
//! handling and joins, §4.3, never the data path), and — on a running
//! node — which are ring members and which have failed.
//!
//! Two text forms, one reader each:
//!
//! * a node is `host:port[:http_port]` ([`NodeSpec::parse`]): an entry of
//!   `--peers` (ids assigned in order), `muppetd --listen`, and the body
//!   of `POST /join`;
//! * the cluster is one JSON document ([`ClusterView`]): what
//!   `GET /membership` serves, what `POST /join` answers (with the
//!   reserved `id`), and what `muppetd --config` and `--join` read back —
//!   so a saved `/membership` body is a valid config file.

use std::net::{SocketAddr, ToSocketAddrs};

use muppet_core::json::Json;

use crate::transport::MachineId;

/// One machine of the cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSpec {
    /// Ring member id (machine index).
    pub id: MachineId,
    /// Hostname or IP of the event listener.
    pub host: String,
    /// Event (transport frame) port.
    pub port: u16,
    /// HTTP slate-read / ingest port (0 = no HTTP server).
    pub http_port: u16,
}

impl NodeSpec {
    /// Parse `host:port[:http_port]` as node `id` (no `http_port`: no HTTP
    /// server), refusing what [`Topology::validate`] refuses of a node.
    pub fn parse(id: MachineId, text: &str) -> Result<NodeSpec, String> {
        let text = text.trim();
        let (host, port, http_port) = match text.split(':').collect::<Vec<_>>()[..] {
            [host, port] => (host, port, "0"),
            [host, port, http_port] => (host, port, http_port),
            _ => return Err(format!("node '{text}' must be host:port[:http_port]")),
        };
        let port_of = |v: &str| v.parse().map_err(|_| format!("bad port '{v}' in node '{text}'"));
        let (port, http_port) = (port_of(port)?, port_of(http_port)?);
        let node = NodeSpec { id, host: host.to_string(), port, http_port };
        node.check().map(|()| node)
    }

    /// A node must name a host and an event port.
    fn check(&self) -> Result<(), String> {
        match (self.host.is_empty(), self.port) {
            (true, _) => Err(format!("node {} has no host", self.id)),
            (_, 0) => Err(format!("node {} has no port", self.id)),
            _ => Ok(()),
        }
    }

    /// The transport listen/connect address.
    pub fn addr(&self) -> Result<SocketAddr, String> {
        (self.host.as_str(), self.port)
            .to_socket_addrs()
            .map_err(|e| format!("cannot resolve {}:{}: {e}", self.host, self.port))?
            .next()
            .ok_or_else(|| format!("no address for {}:{}", self.host, self.port))
    }
}

/// The full cluster layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    /// All nodes; `nodes[i].id == i`.
    pub nodes: Vec<NodeSpec>,
    /// Which node runs the failure master (§4.3; off the data path).
    pub master: MachineId,
}

impl Topology {
    /// Number of machines.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A loopback cluster of `n` nodes on OS-assigned free ports,
    /// reserved by briefly binding ephemeral listeners and releasing
    /// them. Inherently racy (the port is free again before the node
    /// binds it) — meant for tests, examples, and experiments, where it
    /// replaces hand-rolled port pickers; not for production topologies.
    pub fn loopback_ephemeral(n: usize, with_http: bool) -> std::io::Result<Topology> {
        use std::net::TcpListener;
        let count = if with_http { 2 * n } else { n };
        let holds: Vec<TcpListener> =
            (0..count).map(|_| TcpListener::bind("127.0.0.1:0")).collect::<std::io::Result<_>>()?;
        let mut ports = Vec::with_capacity(count);
        for hold in &holds {
            ports.push(hold.local_addr()?.port());
        }
        let nodes = (0..n)
            .map(|i| NodeSpec {
                id: i,
                host: "127.0.0.1".to_string(),
                port: ports[i],
                http_port: if with_http { ports[n + i] } else { 0 },
            })
            .collect();
        Ok(Topology { nodes, master: 0 })
    }

    /// Parse the compact peer-list form:
    /// `host:port[:http_port],host:port[:http_port],...`
    pub fn from_peer_list(list: &str) -> Result<Topology, String> {
        let parts = list.split(',').filter(|p| !p.trim().is_empty());
        let nodes = parts.enumerate().map(|(id, part)| NodeSpec::parse(id, part));
        let topology = Topology { nodes: nodes.collect::<Result<_, _>>()?, master: 0 };
        topology.validate()?;
        Ok(topology)
    }

    /// Check invariant: ids are exactly `0..n`, every node names a host
    /// and a port, and the master exists.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("topology has no nodes".to_string());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id != i {
                return Err(format!(
                    "node ids must be 0..{} (got {} at position {i})",
                    self.nodes.len(),
                    node.id
                ));
            }
            node.check()?;
        }
        if self.master >= self.nodes.len() {
            return Err(format!("master {} is not a node", self.master));
        }
        Ok(())
    }
}

/// One node's view of the cluster: the document `GET /membership`
/// serves, `POST /join` answers and `muppetd` reads back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterView {
    /// A join grant's reserved machine id for the joiner (always the last
    /// node: ids are append-only, never reused); `None` in any other view.
    pub id: Option<MachineId>,
    /// The installed membership epoch.
    pub epoch: u64,
    /// An epoch prepared and not yet committed: set for the instant a
    /// join takes, or for good when one is stuck.
    pub staged_epoch: Option<u64>,
    /// The committed ring members, sorted — a strict subset of the nodes
    /// while reservations are pending; only these may enter a joiner's
    /// initial rings (the others enter via their own commit).
    pub members: Vec<MachineId>,
    /// Machines known failed, so a joiner never routes to corpses.
    pub failed: Vec<MachineId>,
    /// Every node with an id (reservations in no ring included), and the
    /// master.
    pub topology: Topology,
    /// The founding machine count (Muppet 1.0 derives the founders'
    /// worker layout from it and every later machine's from its id).
    pub base: usize,
    /// The machine hosting the slate store: a joiner without it would
    /// fault nothing and silently reset every moved slate.
    pub store_host: Option<MachineId>,
}

impl ClusterView {
    /// The view as compact JSON; `id` only in a join grant.
    pub fn to_json(&self) -> String {
        let num = |n: usize| Json::num(n as f64);
        let ids = |ids: &[MachineId]| Json::arr(ids.iter().map(|&m| num(m)));
        let nodes = self.topology.nodes.iter().map(|n| {
            Json::obj([
                ("id", num(n.id)),
                ("host", Json::str(&n.host)),
                ("port", num(n.port.into())),
                ("http_port", num(n.http_port.into())),
            ])
        });
        let mut doc = Json::obj([
            ("epoch", Json::num(self.epoch as f64)),
            ("staged_epoch", self.staged_epoch.map_or(Json::Null, |e| Json::num(e as f64))),
            ("members", ids(&self.members)),
            ("failed", ids(&self.failed)),
            ("nodes", Json::arr(nodes)),
            ("master", num(self.topology.master)),
            ("base", num(self.base)),
            ("store_host", self.store_host.map_or(Json::Null, num)),
        ]);
        if let Some(id) = self.id {
            doc.set("id", num(id));
        }
        doc.to_compact()
    }

    /// Read a view back, refusing a key it does not know, a value of the
    /// wrong type, an id that names no node and a topology that fails
    /// [`Topology::validate`]. Only `nodes` is required (its entries in
    /// any order): a key left out or `null` reads as a founding cluster's
    /// — epoch 0, every node a member, none failed, master 0, `base` the
    /// node count, no store host.
    pub fn from_json(text: &str) -> Result<ClusterView, String> {
        let doc = Json::parse(text).map_err(|e| format!("cluster document: {e}"))?;
        known_keys(&doc, "id epoch staged_epoch members failed nodes master base store_host")?;
        let get = |key: &str| doc.get(key).filter(|v| !v.is_null());
        let nodes = get("nodes").and_then(Json::as_arr).ok_or("'nodes' must be an array")?;
        let mut nodes: Vec<NodeSpec> = nodes.iter().map(node_of).collect::<Result<_, _>>()?;
        nodes.sort_by_key(|n| n.id);
        let last = nodes.len().saturating_sub(1) as u64;
        let num = |key, max| get(key).map(|v| whole(v, key, max)).transpose();
        let id = |key| Ok::<_, String>(num(key, last)?.map(|m| m as MachineId));
        let ids = |key| -> Result<Option<Vec<MachineId>>, String> {
            let Some(list) = get(key) else { return Ok(None) };
            let list = list.as_arr().ok_or(format!("'{key}' must be an array"))?;
            list.iter()
                .map(|m| Ok(whole(m, key, last)? as MachineId))
                .collect::<Result<_, _>>()
                .map(Some)
        };
        let topology = Topology { master: id("master")?.unwrap_or(0), nodes };
        topology.validate()?;
        Ok(ClusterView {
            id: id("id")?,
            epoch: num("epoch", u64::MAX)?.unwrap_or(0),
            staged_epoch: num("staged_epoch", u64::MAX)?,
            members: ids("members")?.unwrap_or_else(|| (0..topology.len()).collect()),
            failed: ids("failed")?.unwrap_or_default(),
            base: num("base", u64::MAX)?.map_or(topology.len(), |b| b as usize),
            store_host: id("store_host")?,
            topology,
        })
    }
}

/// Refuse a value that is no object, or one with a key outside the
/// space-separated `keys`.
fn known_keys(doc: &Json, keys: &str) -> Result<(), String> {
    let fields = doc.as_obj().ok_or("expected a JSON object")?;
    match fields.iter().find(|(key, _)| !keys.split(' ').any(|k| k == key)) {
        Some((key, _)) => Err(format!("unknown key '{key}'")),
        None => Ok(()),
    }
}

/// `value` as a whole number no larger than `max`.
fn whole(value: &Json, key: &str, max: u64) -> Result<u64, String> {
    let wrong = || format!("'{key}' must be a whole number up to {max}");
    value.as_u64().filter(|&n| n <= max).ok_or_else(wrong)
}

/// One entry of `nodes`: `id`, `host` and `port`, and `http_port` unless 0.
fn node_of(node: &Json) -> Result<NodeSpec, String> {
    known_keys(node, "id host port http_port")?;
    let port = |key| node.get(key).map_or(Ok(0), |p| whole(p, key, u16::MAX.into()));
    let host = node.get("host").and_then(Json::as_str).ok_or("a node's 'host' must be a string")?;
    Ok(NodeSpec {
        id: whole(node.get("id").ok_or("a node needs an 'id'")?, "id", u64::MAX)? as MachineId,
        host: host.into(),
        port: port("port")? as u16,
        http_port: port("http_port")? as u16,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_list_parses() {
        let topo =
            Topology::from_peer_list("127.0.0.1:9400:8400, 127.0.0.1:9401,127.0.0.1:9402:8402")
                .unwrap();
        assert_eq!(topo.nodes.len(), 3);
        assert_eq!(topo.nodes[1].http_port, 0);
        assert_eq!(topo.nodes[2].id, 2);
        assert_eq!(topo.master, 0);
        assert_eq!(topo.nodes[0].addr().unwrap().port(), 9400);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(Topology::from_peer_list("").is_err());
        assert!(Topology::from_peer_list("localhost").is_err());
        assert!(Topology::from_peer_list("localhost:not-a-port").is_err());
        assert!(Topology::from_peer_list("localhost:0:8100").is_err(), "port 0");
        assert!(Topology::from_peer_list(":9100").is_err(), "no host");
        assert!(NodeSpec::parse(3, "127.0.0.1:0:8103").is_err(), "port 0");
        assert!(NodeSpec::parse(3, "127.0.0.1:9103:8103:1").is_err());
        assert!(NodeSpec::parse(3, "127.0.0.1:70000").is_err());
    }

    #[test]
    fn malformed_cluster_documents_are_refused() {
        let node = |id| format!(r#"{{"id":{id},"host":"h","port":1}}"#);
        let one = node(0);
        assert!(ClusterView::from_json(&format!(r#"{{"nodes":[{one}]}}"#)).is_ok());
        for bad in [
            format!(r#"{{"nodes":[{}]}}"#, node(5)),
            format!(r#"{{"master":3,"nodes":[{one}]}}"#),
            format!(r#"{{"bogus":1,"nodes":[{one}]}}"#),
            r#"{"nodes":[{"id":0,"host":"h","port":1,"bogus":1}]}"#.into(),
            r#"{"nodes":[{"id":0,"host":"h","port":70000}]}"#.into(),
            r#"{"nodes":[{"id":0,"host":"h","port":0}]}"#.into(),
            r#"{"nodes":[{"id":0,"port":1}]}"#.into(),
            format!(r#"{{"store_host":"0","nodes":[{one}]}}"#),
            format!(r#"{{"members":[0,"1"],"nodes":[{one}]}}"#),
            format!(r#"{{"failed":[1],"nodes":[{one}]}}"#),
            format!(r#"{{"epoch":-1,"nodes":[{one}]}}"#),
            format!(r#"{{"id":1.5,"nodes":[{one}]}}"#),
            r#"{"nodes":[]}"#.into(),
            "[]".into(),
            String::new(),
        ] {
            assert!(ClusterView::from_json(&bad).is_err(), "{bad}");
        }
    }
}
