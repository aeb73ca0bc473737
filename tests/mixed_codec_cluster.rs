//! Mixed-codec cluster: a JSON-pinned node (it writes text at rest and
//! leaves ingested values as they arrive) and a full-`mbf` node (MBF at
//! rest, container values transcoded to MBF at ingest) run one workflow
//! over real TCP loopback. The wire carries each value as its writer
//! tagged it, so the JSON node receives MBF event values and reads them
//! by sniffing, as every reader does. The invariant is total: exact
//! per-key counts against ground truth, zero loss, in both traffic
//! directions.

use std::collections::BTreeMap;
use std::time::Duration;

use muppet::apps::retailer::{self, Counter, RetailerMapper};
use muppet::prelude::*;
use muppet::workloads::checkins::CheckinGenerator;

fn start_node(topology: &Topology, local: usize, codec: CodecChoice) -> Engine {
    let cfg = EngineConfig {
        kind: EngineKind::Muppet2,
        machines: topology.len(),
        workers_per_machine: 2,
        workers_per_op: 2,
        transport: TransportKind::Tcp { topology: topology.clone(), local },
        overflow: OverflowPolicy::SourceThrottle,
        queue_capacity: 512,
        wire_codec: codec,
        ..EngineConfig::default()
    };
    Engine::start(
        retailer::workflow(),
        OperatorSet::new().mapper(RetailerMapper::new()).updater(Counter::new()),
        cfg,
        None,
    )
    .unwrap()
}

#[test]
fn json_pinned_and_mbf_nodes_agree_exactly_on_counts() {
    let topology = Topology::loopback_ephemeral(2, false).unwrap();
    // Node 0 is the "old" peer: pinned to the text wire, it sends the
    // pre-v5 hello byte-for-byte and never learns about MBF. Node 1 is
    // an upgraded node running full-binary `Mbf`: offers MBF, stores
    // slates in MBF, and converts container-shaped event values to MBF
    // at ingest — so its frames toward node 0 must transcode back to
    // text on the way out.
    let old = start_node(&topology, 0, CodecChoice::Json);
    let new = start_node(&topology, 1, CodecChoice::Mbf);

    let mut gen = CheckinGenerator::new(4242, 600, 2000.0);
    let events = gen.take(retailer::CHECKIN_STREAM, 6000);
    let truth: BTreeMap<String, u64> =
        CheckinGenerator::expected_retailer_counts(&events).into_iter().collect();

    // Both directions cross the mixed wire: half the source traffic
    // enters at the old node (JSON values routed partly to the MBF
    // node), half at the new node (MBF values routed partly to the
    // JSON-pinned node, transcoded to text at its connection).
    for (i, ev) in events.into_iter().enumerate() {
        if i % 2 == 0 {
            old.submit(ev).unwrap();
        } else {
            new.submit(ev).unwrap();
        }
    }
    assert!(old.drain(Duration::from_secs(60)), "old node must drain");
    assert!(new.drain(Duration::from_secs(60)), "new node must drain");
    // A node's drain can return while frames are still in TCP flight
    // toward it, so wait for the cluster-wide processed count to go
    // stable before reading counts (the x15/x22 quiesce idiom).
    let total = || old.stats().processed + new.stats().processed;
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let mut last = total();
    let mut stable_since = std::time::Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = total();
        if now != last {
            last = now;
            stable_since = std::time::Instant::now();
        } else if stable_since.elapsed() > Duration::from_millis(400) && now > 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "mixed cluster did not quiesce");
    }

    // Exact counts: read each slate from the machine that owns it.
    let mut got = BTreeMap::new();
    for (retailer_name, _) in muppet::workloads::checkins::RETAILER_VENUES {
        let key = Key::from(*retailer_name);
        let owner = old.owner_machine(retailer::COUNTER, &key).expect("routable key");
        let node = if owner == 0 { &old } else { &new };
        if let Some(bytes) = node.read_slate(retailer::COUNTER, &key) {
            let count = String::from_utf8(bytes).unwrap().parse::<u64>().unwrap();
            got.insert(retailer_name.to_string(), count);
        }
    }
    assert_eq!(got, truth, "mixed-codec cluster must be exact");

    let old_stats = old.shutdown();
    let new_stats = new.shutdown();
    for (name, stats) in [("old", &old_stats), ("new", &new_stats)] {
        assert_eq!(stats.dropped_overflow, 0, "{name}: zero-loss config must not drop");
        assert_eq!(
            stats.lost_machine_failure + stats.lost_in_queues,
            0,
            "{name}: nothing may be lost crossing the mixed wire"
        );
    }
}
