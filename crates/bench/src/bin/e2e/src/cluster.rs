//! Profile `cluster3`: three engines in this process, each wired the way
//! `src/bin/muppetd.rs` wires one node — real TCP over loopback, ingest
//! WAL with group commit, node 0 hosting the on-disk slate store, an HTTP
//! slate server per node.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use muppet_core::mbf::Codec;
use muppet_net::topology::Topology;
use muppet_obs::Value;
use muppet_runtime::cache::{FlushItem, SlateBackend};
use muppet_runtime::engine::{Engine, EngineConfig, EngineKind, TransportKind};
use muppet_runtime::http::{HttpSlateServer, SlateReader};
use muppet_runtime::overflow::OverflowPolicy;
use muppet_slatestore::cluster::{StoreCluster, StoreConfig};

use crate::probe::Probe;
use crate::spec::Spec;

pub const MACHINES: usize = 3;
const STORE_HOST: usize = 0;
/// The cluster counts as quiescent once every node reports nothing
/// pending and the cluster-wide processed count has not moved for this
/// long (x22's idiom; loopback flight time is far below it).
const QUIESCE_STABLE: Duration = Duration::from_millis(50);

pub struct Cluster {
    pub nodes: Vec<Arc<Engine>>,
    http: Vec<HttpSlateServer>,
    pub store: Arc<StoreCluster>,
    dir: PathBuf,
}

/// Registry readings summed over the nodes: scalars by flat name, and
/// histogram bucket counts (factor-of-two buckets, µs) by flat name.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub scalars: BTreeMap<String, f64>,
    pub hists: BTreeMap<String, Vec<u64>>,
}

impl Snapshot {
    pub fn get(&self, name: &str) -> f64 {
        self.scalars.get(name).copied().unwrap_or(0.0)
    }

    /// `self - earlier`, per name; bucket counts likewise.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let scalars = self.scalars.iter().map(|(k, v)| (k.clone(), v - earlier.get(k))).collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, now)| {
                let before = earlier.hists.get(k);
                let delta = now
                    .iter()
                    .enumerate()
                    .map(|(i, n)| n - before.and_then(|b| b.get(i)).copied().unwrap_or(0))
                    .collect();
                (k.clone(), delta)
            })
            .collect();
        Snapshot { scalars, hists }
    }

    /// Percentile of a registry histogram as its bucket's upper bound
    /// (factor-of-two resolution: advisory).
    pub fn hist_percentile_us(&self, name: &str, p: f64) -> f64 {
        let Some(buckets) = self.hists.get(name) else { return 0.0 };
        let total: u64 = buckets.iter().sum();
        let rank = (p * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, n) in buckets.iter().enumerate() {
            seen += n;
            if *n > 0 && seen >= rank {
                return muppet_obs::Histogram::bucket_upper_bound(i) as f64;
            }
        }
        0.0
    }
}

fn flat_name(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let ls: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", ls.join(","))
}

impl Cluster {
    /// Start the three nodes under `dir` (created; removed by
    /// [`Cluster::shutdown`]). `seed_slates` are written to the store
    /// before any engine starts, through the same `SlateBackend` call a
    /// cache flush makes.
    pub fn start(
        spec: &Spec,
        probe: &Arc<Probe>,
        dir: &Path,
        seed_slates: &[FlushItem],
    ) -> Result<Cluster, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let topology = Topology::loopback_ephemeral(MACHINES, true)
            .map_err(|e| format!("reserve loopback ports: {e}"))?;
        let defaults = EngineConfig::default();
        // muppetd's store configuration: the ingest WAL is on, so the
        // store's own WAL syncs too, and an MBF-storing node compacts
        // JSON cells forward.
        let store_cfg = StoreConfig {
            wal_sync_each: true,
            compact_rewrite_mbf: defaults.wire_codec.store_codec() == Codec::Mbf,
            ..StoreConfig::default()
        };
        let store = Arc::new(
            StoreCluster::open(dir.join("store"), store_cfg)
                .map_err(|e| format!("open store: {e:?}"))?,
        );
        if store.store_many(seed_slates, 0).contains(&false) {
            return Err("the store refused a pre-population write".into());
        }
        let mut nodes = Vec::with_capacity(MACHINES);
        let mut http = Vec::with_capacity(MACHINES);
        for local in 0..MACHINES {
            let cfg = EngineConfig {
                kind: EngineKind::Muppet2,
                machines: MACHINES,
                workers_per_machine: 2,
                workers_per_op: 2,
                transport: TransportKind::Tcp { topology: topology.clone(), local },
                store_host: Some(STORE_HOST),
                overflow: OverflowPolicy::SourceThrottle,
                queue_capacity: 1 << 14,
                ingest_wal: Some(dir.join(format!("ingest-{local}.wal"))),
                ingest_sync_each: false,
                slate_cache_capacity: spec
                    .slate_cache_capacity
                    .unwrap_or(defaults.slate_cache_capacity),
                combine: spec.combine,
                hot_split_threshold: spec.hot_split_threshold,
                ..EngineConfig::default()
            };
            let host_store = (local == STORE_HOST).then(|| Arc::clone(&store));
            let engine = Engine::start(spec.workflow(), spec.operators(probe), cfg, host_store)
                .map_err(|e| format!("start node {local}: {e}"))?;
            let engine = Arc::new(engine);
            let spec_node = &topology.nodes[local];
            let addr = format!("{}:{}", spec_node.host, spec_node.http_port);
            let server =
                HttpSlateServer::serve_on(Arc::clone(&engine) as Arc<dyn SlateReader>, &addr)
                    .map_err(|e| format!("bind http on {addr}: {e}"))?;
            nodes.push(engine);
            http.push(server);
        }
        Ok(Cluster { nodes, http, store, dir: dir.to_path_buf() })
    }

    pub fn http_port(&self, node: usize) -> u16 {
        self.http[node].port()
    }

    /// Wait until no node has work pending and the cluster-wide processed
    /// count is stable; returns the instant the count last moved.
    pub fn quiesce(&self, timeout: Duration) -> Result<Instant, String> {
        let deadline = Instant::now() + timeout;
        let processed = || self.nodes.iter().map(|n| n.stats().processed).sum::<u64>();
        let mut last = processed();
        let mut stable_since = Instant::now();
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let idle = self.nodes.iter().all(|n| n.drain(Duration::ZERO));
            let now = processed();
            if now != last || !idle {
                last = now;
                stable_since = Instant::now();
            } else if stable_since.elapsed() >= QUIESCE_STABLE {
                return Ok(stable_since);
            }
            if Instant::now() > deadline {
                return Err(format!("cluster did not quiesce within {timeout:?}"));
            }
        }
    }

    /// `Engine::checkpoint` on every node in turn: ⟨drain wall time, flush
    /// and cursor wall time⟩ summed over the nodes.
    pub fn checkpoint(&self) -> Result<(Duration, Duration), String> {
        let (mut drain, mut flush) = (Duration::ZERO, Duration::ZERO);
        for (id, node) in self.nodes.iter().enumerate() {
            let t0 = Instant::now();
            if !node.drain(Duration::from_secs(30)) {
                return Err(format!("node {id} did not drain before its checkpoint"));
            }
            let drained = t0.elapsed();
            if !node.checkpoint(Duration::from_secs(30)) {
                return Err(format!("checkpoint failed on node {id}"));
            }
            drain += drained;
            flush += t0.elapsed() - drained;
        }
        Ok((drain, flush))
    }

    /// Bytes under the run directory: the ingest WALs and the store.
    pub fn disk_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.dir)
    }

    /// Every node's registry, summed. The slate codec counters are
    /// process-wide statics that each node's registry repeats, so they are
    /// taken once.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for node in &self.nodes {
            for sample in node.registry().gather() {
                let name = flat_name(&sample.name, &sample.labels);
                match sample.value {
                    Value::Counter(v) => *snap.scalars.entry(name).or_default() += v as f64,
                    Value::Gauge(v) => *snap.scalars.entry(name).or_default() += v as f64,
                    Value::Histogram(h) => {
                        *snap.scalars.entry(format!("{name}_count")).or_default() += h.count as f64;
                        *snap.scalars.entry(format!("{name}_sum")).or_default() += h.sum as f64;
                        let acc = snap.hists.entry(name).or_default();
                        if acc.len() < h.bucket_counts.len() {
                            acc.resize(h.bucket_counts.len(), 0);
                        }
                        for (a, n) in acc.iter_mut().zip(&h.bucket_counts) {
                            *a += n;
                        }
                    }
                }
            }
        }
        let (parses, serializations) = muppet_core::slate::repr_counters();
        snap.scalars.insert("muppet_slate_parses_total".into(), parses as f64);
        snap.scalars.insert("muppet_slate_serializations_total".into(), serializations as f64);
        snap
    }

    /// Stop the HTTP servers and the engines, and remove the run
    /// directory.
    pub fn shutdown(self) {
        drop(self.http);
        for node in self.nodes {
            // A connection thread can still hold its clone for a moment
            // after the server stops accepting.
            let mut node = node;
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                match Arc::try_unwrap(node) {
                    Ok(engine) => {
                        engine.shutdown();
                        break;
                    }
                    Err(shared) if Instant::now() < deadline => {
                        node = shared;
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        }
        drop(self.store);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
