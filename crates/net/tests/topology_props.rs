//! Property tests for the one cluster document, `ClusterView`: every
//! generated topology, inside a view with its members, failed set and
//! store host, round-trips through `to_json`/`from_json`, and arbitrary or
//! damaged text is refused (or read) without a panic.

use muppet_net::topology::{ClusterView, NodeSpec, Topology};
use proptest::prelude::*;

fn arb_topology() -> impl Strategy<Value = Topology> {
    let node = ("[a-z0-9.\\-]{1,24}", 1u16..=u16::MAX, any::<u16>());
    (proptest::collection::vec(node, 1..8), any::<usize>()).prop_map(|(nodes, master)| {
        let nodes: Vec<NodeSpec> = nodes
            .into_iter()
            .enumerate()
            .map(|(id, (host, port, http_port))| NodeSpec { id, host, port, http_port })
            .collect();
        Topology { master: master % nodes.len(), nodes }
    })
}

/// A view over a generated topology; ids are drawn as any number and
/// folded onto the node count.
fn arb_view() -> impl Strategy<Value = ClusterView> {
    let ids = || proptest::collection::vec(any::<usize>(), 0..6);
    let epoch = 0u64..1 << 53;
    (
        arb_topology(),
        (epoch.clone(), proptest::option::of(epoch)),
        (ids(), ids()),
        (proptest::option::of(any::<usize>()), proptest::option::of(any::<usize>())),
        1usize..64,
    )
        .prop_map(|(topology, (epoch, staged_epoch), (members, failed), (id, store), base)| {
            let n = topology.len();
            let fold = |ids: Vec<usize>| ids.into_iter().map(|m| m % n).collect();
            ClusterView {
                id: id.map(|m| m % n),
                epoch,
                staged_epoch,
                members: fold(members),
                failed: fold(failed),
                base,
                store_host: store.map(|m| m % n),
                topology,
            }
        })
}

proptest! {
    #[test]
    fn every_view_reads_back_equal(view in arb_view()) {
        prop_assert_eq!(ClusterView::from_json(&view.to_json()), Ok(view));
    }

    #[test]
    fn a_document_of_nodes_alone_reads_as_its_founding_cluster(topology in arb_topology()) {
        // As written by hand: nodes in reverse order, no `http_port` of 0.
        let nodes: Vec<String> = topology
            .nodes
            .iter()
            .rev()
            .map(|n| {
                let http = match n.http_port {
                    0 => String::new(),
                    p => format!(",\"http_port\":{p}"),
                };
                format!(r#"{{"id":{},"host":"{}","port":{}{http}}}"#, n.id, n.host, n.port)
            })
            .collect();
        let text = format!(r#"{{"master":{},"nodes":[{}]}}"#, topology.master, nodes.join(","));
        let view = ClusterView::from_json(&text).unwrap();
        prop_assert_eq!(&view.topology, &topology);
        let founding = (view.id, view.epoch, view.staged_epoch, view.store_host);
        prop_assert_eq!(founding, (None, 0, None, None));
        prop_assert_eq!(view.members, (0..topology.len()).collect::<Vec<_>>());
        prop_assert!(view.failed.is_empty() && view.base == topology.len());
    }

    #[test]
    fn arbitrary_text_is_refused(text in "\\PC{0,96}") {
        prop_assert!(ClusterView::from_json(&text).is_err());
    }

    #[test]
    fn every_cut_of_a_document_is_refused(view in arb_view(), cut in any::<usize>()) {
        let text = view.to_json();
        let mut cut = cut % text.len();
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assert!(ClusterView::from_json(&text[..cut]).is_err());
    }

    #[test]
    fn a_damaged_document_never_panics_the_reader(
        view in arb_view(),
        at in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = view.to_json().into_bytes();
        let at = at % bytes.len();
        bytes[at] ^= flip;
        // Read or refused, never a panic; what reads is a valid topology.
        if let Ok(read) = ClusterView::from_json(&String::from_utf8_lossy(&bytes)) {
            prop_assert!(read.topology.validate().is_ok());
        }
    }
}
