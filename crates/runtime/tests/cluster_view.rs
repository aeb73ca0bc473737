//! The one cluster document through the function the HTTP server runs on
//! every connection (`http::serve_request`): `POST /join` answers a grant
//! that reads back as the master's view with the reserved id, refuses a
//! node it could never dial, and a node's `GET /membership` body reads
//! back, as `muppetd --config` reads it, to that node's topology.

use muppet_core::event::Event;
use muppet_core::operator::{Emitter, FnUpdater};
use muppet_core::slate::Slate;
use muppet_core::workflow::Workflow;
use muppet_net::topology::{ClusterView, NodeSpec, Topology};
use muppet_runtime::engine::{Engine, EngineConfig, OperatorSet, TransportKind};
use muppet_runtime::http::{serve_request, SlateReader};

/// Node `local` of a TCP cluster over `topology`, the store on node 0.
fn tcp_node(topology: &Topology, local: usize) -> Engine {
    let mut b = Workflow::builder("view");
    b.external_stream("S1");
    b.updater("U1", &["S1"]);
    let ops = OperatorSet::new().updater(FnUpdater::new(
        "U1",
        |_: &mut dyn Emitter, _: &Event, slate: &mut Slate| {
            slate.incr_counter(1);
        },
    ));
    let cfg = EngineConfig {
        machines: topology.len(),
        workers_per_machine: 1,
        transport: TransportKind::Tcp { topology: topology.clone(), local },
        store_host: Some(0),
        ..EngineConfig::default()
    };
    Engine::start(b.build().unwrap(), ops, cfg, None).unwrap()
}

/// Serve one request; the status code and the body answered.
fn request(engine: &Engine, method: &str, path: &str, body: &str) -> (u16, String) {
    let raw = format!("{method} {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    let mut out = Vec::new();
    serve_request(&mut raw.as_bytes(), &mut out, engine).unwrap();
    let text = String::from_utf8(out).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").unwrap();
    (head["HTTP/1.1 ".len()..][..3].parse().unwrap(), body.to_string())
}

#[test]
fn a_join_of_a_node_nobody_can_dial_is_refused_and_reserves_nothing() {
    let topology = Topology::loopback_ephemeral(1, false).unwrap();
    let master = tcp_node(&topology, 0);
    let before = master.membership_json();
    for body in ["127.0.0.1:0:8103", "127.0.0.1:0", ":9103:8103", "127.0.0.1:9103:8103:1"] {
        let (code, answer) = request(&master, "POST", "/join", body);
        assert_eq!(code, 400, "{body} answered {answer}");
    }
    assert_eq!(master.membership_json(), before, "no id was reserved");
    assert_eq!(master.machine_count(), 1);
    master.shutdown();
}

#[test]
fn a_join_grant_reads_back_as_the_masters_view_with_the_reserved_id() {
    let topology = Topology::loopback_ephemeral(1, true).unwrap();
    let master = tcp_node(&topology, 0);
    let listen = "127.0.0.1:9103:8103";
    let (code, body) = request(&master, "POST", "/join", listen);
    assert_eq!(code, 200, "{body}");
    let grant = ClusterView::from_json(&body).unwrap();
    assert_eq!(grant, ClusterView { id: Some(1), ..master.cluster_view() });
    let mut nodes = topology.nodes.clone();
    nodes.push(NodeSpec::parse(1, listen).unwrap());
    assert_eq!(grant.topology, Topology { nodes, master: 0 });
    assert_eq!((grant.epoch, &grant.members[..], grant.base), (0, &[0][..], 1));
    assert_eq!((grant.failed.len(), grant.store_host), (0, Some(0)));
    // The reservation grew the node table /membership serves, no ring.
    let (code, body) = request(&master, "GET", "/membership", "");
    assert_eq!(code, 200);
    assert_eq!(ClusterView::from_json(&body).unwrap(), ClusterView { id: None, ..grant });
    master.shutdown();
}

#[test]
fn a_saved_membership_body_reads_back_as_the_nodes_topology() {
    let mut topology = Topology::loopback_ephemeral(2, true).unwrap();
    topology.master = 1;
    let node = tcp_node(&topology, 0);
    let (code, body) = request(&node, "GET", "/membership", "");
    assert_eq!(code, 200);
    assert_eq!(body, node.membership_json());
    assert_eq!(ClusterView::from_json(&body).unwrap().topology, topology);
    node.shutdown();
}
