//! One workload run: set-up, open-loop base and peak, closed-loop flood and
//! checkpoint, verification against `core::reference`; and in a traced run
//! the per-layer pass on top.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use muppet_core::event::{Event, Key};
use muppet_core::json::Json;
use muppet_core::mbf::Codec;
use muppet_core::reference::ReferenceExecutor;
use muppet_runtime::cache::FlushItem;
use muppet_runtime::http::{http_get, percent_encode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::{Cluster, Snapshot, MACHINES};
use crate::hist::{lowest_over, Hist};
use crate::layers::{self, LayerCosts};
use crate::openloop::{self, poisson_offsets, Events, Issued, Sink, TICK_US};
use crate::probe::{Phase, Probe, Span, KIND_HTTP, LIMIT_US};
use crate::proc::{process_cpu_s, process_cpu_split_s, status_field, thread_cpu_s};
use crate::report::{Metric, Outcome};
use crate::spec::Spec;
use crate::trace;

/// Nominal length of the flood inside `--seconds`; the rest is split
/// between the open-loop phases.
const FLOOD_NOMINAL_S: f64 = 2.0;
const WARM_UP_S: f64 = 1.0;
/// Distinct slates the HTTP reader cycles through.
const READ_KEYS: usize = 2_048;
const SAMPLE_PERIOD: Duration = Duration::from_millis(250);
const READS_PER_READER: f64 = 250.0;
/// Distinct source events generated per run; longer runs repeat them.
const POOL_MAX: usize = 200_000;

#[derive(Clone)]
pub struct Options {
    pub seed: u64,
    /// Measured seconds: a nominal 2 s flood, the rest in open-loop phases.
    pub seconds: f64,
    pub trace: bool,
    /// 1 s phases and a tenth of the flood, for the test suite.
    pub smoke: bool,
    /// Also write the spans of a traced run here, as JSON lines.
    pub trace_out: Option<PathBuf>,
    /// Run directories are created (and removed) under here.
    pub run_root: PathBuf,
}

struct ClusterSink<'a>(&'a Cluster);

impl Sink for ClusterSink<'_> {
    fn nodes(&self) -> usize {
        self.0.nodes.len()
    }

    fn submit(&self, node: usize, frame: Vec<Event>) -> Result<(), String> {
        self.0.nodes[node].submit_many(frame).map_err(|e| e.to_string())
    }
}

/// Canonical form of a slate payload: a document as compact JSON text
/// whatever codec it rested in, anything else as its raw text.
fn canonical(bytes: &[u8]) -> String {
    Json::from_payload(bytes)
        .map(|doc| doc.to_compact())
        .unwrap_or_else(|_| String::from_utf8_lossy(bytes).into_owned())
}

/// Phase lengths and the deterministic inputs of every phase.
struct Plan {
    warm_s: f64,
    base_s: f64,
    traced_s: f64,
    peak_s: f64,
    prepopulate: Vec<Event>,
    /// The distinct seeded source events; the phases take consecutive
    /// runs of it, wrapping round.
    pool: Vec<Event>,
    /// Closed-loop events of set-up that fill the slate caches.
    fill: usize,
    warm: Vec<u64>,
    flood: usize,
    base: Vec<u64>,
    traced: Vec<u64>,
    peak: Vec<u64>,
}

impl Plan {
    fn new(spec: &Spec, opts: &Options) -> Plan {
        let phase_s =
            if opts.smoke { 1.0 } else { ((opts.seconds - FLOOD_NOMINAL_S) / 2.0).max(1.0) };
        let (base_s, traced_s, peak_s) = if opts.trace {
            (0.4 * phase_s, 0.8 * phase_s, 0.5 * phase_s)
        } else {
            (phase_s, 0.0, phase_s)
        };
        let warm_s = if opts.smoke { 0.3 } else { WARM_UP_S };
        let offsets = |rate: f64, secs: f64, salt: u64| {
            poisson_offsets(rate, Duration::from_secs_f64(secs), opts.seed ^ salt)
        };
        let warm = offsets(spec.rate_base, warm_s, 0x57a2);
        let base = offsets(spec.rate_base, base_s, 0xba5e);
        let traced =
            if traced_s > 0.0 { offsets(spec.rate_base, traced_s, 0x7ace) } else { Vec::new() };
        let peak = offsets(spec.rate_peak, peak_s, 0x9eac);
        let flood = if opts.smoke { spec.n_flood / 10 } else { spec.n_flood };
        let fill = if opts.smoke { spec.cache_fill / 10 } else { spec.cache_fill };
        let total = fill + warm.len() + flood + base.len() + traced.len() + peak.len();
        Plan {
            warm_s,
            base_s,
            traced_s,
            peak_s,
            prepopulate: spec.prepopulate_events(),
            pool: spec.events(total.min(POOL_MAX), opts.seed),
            fill,
            warm,
            flood,
            base,
            traced,
            peak,
        }
    }

    /// The events of ⟨fill, warm, flood, base, traced, peak⟩.
    fn slices(&self) -> [Events<'_>; 6] {
        let mut first = 0;
        [
            self.fill,
            self.warm.len(),
            self.flood,
            self.base.len(),
            self.traced.len(),
            self.peak.len(),
        ]
        .map(|len| {
            first += len;
            Events { pool: &self.pool, first: first - len, len }
        })
    }

    /// Every event the run submits, in order.
    fn all(&self) -> Events<'_> {
        let [fill, .., peak] = self.slices();
        Events { pool: &self.pool, first: fill.first, len: peak.first + peak.len }
    }
}

/// What the single-threaded reference says the run must produce.
struct Expected {
    /// Slates the pre-population events leave behind: set-up writes these
    /// into the store as they are.
    seed: Vec<FlushItem>,
    /// Canonical slates of the terminal updater after every planned event,
    /// for the keys the run's own traffic touched.
    slates: BTreeMap<Key, String>,
    /// The reference's speed over the run's events, events/s.
    rate: f64,
}

fn reference(spec: &Spec, prepopulate: &[Event], submitted: Events) -> Result<Expected, String> {
    let wf = spec.workflow();
    let updater: Arc<str> = Arc::from(spec.terminal());
    let mut exec = spec.reference(&wf);
    let mut ts = 0u64;
    let mut run = |exec: &mut ReferenceExecutor, events: Events| {
        exec.push_external_batch(
            spec.stream(),
            events.iter().map(|e| {
                ts += 1;
                Event { ts, ..e.clone() }
            }),
        );
        exec.run_to_completion().map(|_| ()).map_err(|e| format!("reference run: {e}"))
    };
    run(&mut exec, Events { pool: prepopulate, first: 0, len: prepopulate.len() })?;
    let seed: Vec<FlushItem> = exec
        .slates_of(spec.terminal())
        .into_iter()
        .map(|(key, slate)| FlushItem {
            updater: Arc::clone(&updater),
            key: key.clone(),
            bytes: slate.to_shared(),
            codec: Codec::sniff(slate.bytes()),
            ttl_secs: None,
        })
        .collect();
    let t0 = Instant::now();
    run(&mut exec, submitted)?;
    let rate = submitted.len as f64 / t0.elapsed().as_secs_f64();
    let before: BTreeMap<&Key, String> =
        seed.iter().map(|item| (&item.key, canonical(&item.bytes))).collect();
    let slates = exec
        .slates_of(spec.terminal())
        .into_iter()
        .map(|(key, slate)| (key.clone(), canonical(slate.bytes())))
        .filter(|(key, now)| before.get(key) != Some(now))
        .collect();
    Ok(Expected { seed, slates, rate })
}

/// Up to 256 slate payloads of the terminal updater after `events`: the
/// codec and store inputs of the `layers` pass.
pub fn sample_slates(spec: &Spec, events: &[Event]) -> Result<Vec<Vec<u8>>, String> {
    let expected = reference(spec, &[], Events { pool: events, first: 0, len: events.len() })?;
    Ok(expected.slates.into_values().take(256).map(String::into_bytes).collect())
}

/// What the 4 Hz sampler saw while a phase's load was on.
#[derive(Default)]
struct Sampled {
    /// ⟨seconds into the phase, events pending in queues and outboxes⟩.
    backlog: Vec<(f64, f64)>,
    pending_max: f64,
    outbound_max: f64,
    dirty_max: f64,
    snapshot_ms: Vec<f64>,
    /// ⟨process CPU seconds, events submitted cluster-wide⟩ at each sample.
    work: Vec<(f64, f64)>,
}

impl Sampled {
    /// Process CPU µs per submitted event over each whole second of load.
    fn cpu_us_per_event_windows(&self) -> Vec<f64> {
        let per_second = (1.0 / SAMPLE_PERIOD.as_secs_f64()).round() as usize;
        self.work
            .iter()
            .step_by(per_second)
            .zip(self.work.iter().skip(per_second).step_by(per_second))
            .filter(|(a, b)| b.1 > a.1)
            .map(|(a, b)| (b.0 - a.0) * 1e6 / (b.1 - a.1))
            .collect()
    }

    /// Least-squares slope of the backlog series, events/s.
    fn backlog_slope(&self) -> f64 {
        let n = self.backlog.len() as f64;
        if n < 3.0 {
            return 0.0;
        }
        let (mx, my) = (
            self.backlog.iter().map(|p| p.0).sum::<f64>() / n,
            self.backlog.iter().map(|p| p.1).sum::<f64>() / n,
        );
        let sxy: f64 = self.backlog.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let sxx: f64 = self.backlog.iter().map(|p| (p.0 - mx).powi(2)).sum();
        if sxx > 0.0 {
            sxy / sxx
        } else {
            0.0
        }
    }
}

fn sample_until(cluster: &Cluster, stop: &AtomicBool) -> Sampled {
    let mut out = Sampled::default();
    let t0 = Instant::now();
    let mut next = t0 + SAMPLE_PERIOD;
    while !stop.load(Ordering::Acquire) {
        if Instant::now() < next {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        next += SAMPLE_PERIOD;
        let at = t0.elapsed().as_secs_f64();
        let t = Instant::now();
        let snap = cluster.snapshot();
        out.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3 / cluster.nodes.len() as f64);
        let pending = snap.get("muppet_pending_events");
        let outbound = snap.get("muppet_net_outbound_backlog");
        out.backlog.push((at, pending + outbound));
        out.pending_max = out.pending_max.max(pending);
        out.outbound_max = out.outbound_max.max(outbound);
        out.dirty_max = out.dirty_max.max(snap.get("muppet_cache_dirty_slates"));
        out.work.push((process_cpu_s(), snap.get("muppet_events_submitted_total")));
    }
    out
}

/// One slate the reader fetches: from a node that does not own the key
/// (the read crosses the wire, §4.4) or, for the per-layer split only,
/// from the owner itself.
struct ReadTarget {
    remote_url: String,
    local_url: String,
}

fn read_targets(cluster: &Cluster, updater: &str, keys: &[Key]) -> Vec<ReadTarget> {
    keys.iter()
        .enumerate()
        .map(|(i, key)| {
            let owner = cluster.nodes[0].owner_machine(updater, key).unwrap_or(0);
            let other = (owner + 1 + i % (MACHINES - 1)) % MACHINES;
            let url = |node: usize| {
                format!(
                    "http://127.0.0.1:{}/slate/{updater}/{}",
                    cluster.http_port(node),
                    percent_encode(key.as_bytes())
                )
            };
            ReadTarget { remote_url: url(other), local_url: url(owner) }
        })
        .collect()
}

#[derive(Default)]
struct Reads {
    attempted: u64,
    /// Transport errors and statuses other than 200 and 404.
    errors: u64,
    /// From due time, µs; reads that crossed the wire and reads the owner
    /// answered itself.
    remote_us: Hist,
    local_us: Hist,
    /// `remote_us` by the second of the phase the read was due in.
    remote_windows: Vec<Hist>,
}

impl Reads {
    fn new(seconds: usize) -> Reads {
        Reads { remote_windows: (0..seconds).map(|_| Hist::new()).collect(), ..Reads::default() }
    }

    fn absorb(&mut self, other: &Reads) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.remote_us.merge(&other.remote_us);
        self.local_us.merge(&other.local_us);
        for (mine, theirs) in self.remote_windows.iter().zip(&other.remote_windows) {
            mine.merge(theirs);
        }
    }

    fn failed(&self) -> u64 {
        self.errors + self.remote_us.count_above(LIMIT_US) + self.local_us.count_above(LIMIT_US)
    }
}

/// Open-loop reads: read `i` is due `offsets_us[i]` after now and is timed
/// from then. Every `local_every`-th read goes to the owner.
fn read_loop(
    probe: &Probe,
    targets: &[ReadTarget],
    offsets_us: &[u64],
    local_every: Option<usize>,
    seconds: usize,
) -> Reads {
    let mut reads = Reads::new(seconds);
    let start_us = probe.now_us();
    for (i, offset) in offsets_us.iter().enumerate() {
        let due_us = start_us + offset;
        openloop::sleep_until(probe.instant_at(due_us));
        let target = &targets[i % targets.len()];
        let local = local_every.is_some_and(|n| i % n == 0);
        let start_ns = probe.now_ns();
        let result = http_get(if local { &target.local_url } else { &target.remote_url });
        let end_ns = probe.now_ns();
        reads.attempted += 1;
        if !matches!(result, Ok((200 | 404, _))) {
            reads.errors += 1;
        }
        let latency_us = (end_ns / 1_000).saturating_sub(due_us);
        if local {
            reads.local_us.record(latency_us);
        } else {
            reads.remote_us.record(latency_us);
            if let Some(window) = reads.remote_windows.get((offset / 1_000_000) as usize) {
                window.record(latency_us);
            }
        }
        if probe.tracing() {
            probe.push_span(Span {
                kind: KIND_HTTP,
                id: due_us,
                aux: local as u64,
                start_ns,
                end_ns,
            });
        }
    }
    reads
}

/// Everything one open-loop phase measured.
struct Loaded {
    rate: f64,
    issued: Issued,
    reads: Reads,
    sampled: Sampled,
    /// Registry deltas over the phase, to quiescence.
    delta: Snapshot,
    /// Load-on wall time, generator thread CPU and process CPU over it.
    wall_s: f64,
    gen_cpu_s: f64,
    proc_cpu_s: f64,
    latency_over_limit: u64,
    /// Whole seconds of load: the windows the best-second figures use.
    seconds: usize,
}

impl Loaded {
    /// ⟨p50, p99⟩ of delivery latency in the phase's best second: the
    /// lowest p50 and the lowest p99 among its one-second windows.
    fn best_second_latency(&self, probe: &Probe, phase: Phase) -> (f64, f64) {
        let windows = probe.latency_windows(phase, self.seconds);
        (lowest_over(windows, |h| h.percentile(0.5)), lowest_over(windows, Hist::p99))
    }

    fn best_second_read_p50(&self) -> f64 {
        lowest_over(&self.reads.remote_windows, |h| h.percentile(0.5))
    }

    /// Process CPU µs per submitted event in the second that cost least.
    fn best_second_cpu_us_per_event(&self) -> f64 {
        let windows = self.sampled.cpu_us_per_event_windows();
        let whole = self.proc_cpu_s * 1e6 / self.issued.events.max(1) as f64;
        windows.into_iter().fold(whole, f64::min)
    }

    /// Events per second actually issued while the load was on.
    fn achieved_rate(&self) -> f64 {
        self.issued.events as f64 / self.wall_s
    }

    fn failed_events(&self) -> u64 {
        self.issued.failed + lost(&self.delta) as u64 + self.latency_over_limit
    }
}

/// Events the engines report lost, dropped or dead-lettered in `counts`.
fn lost(counts: &Snapshot) -> f64 {
    counts.get("muppet_events_lost_total{reason=machine_failure}")
        + counts.get("muppet_events_lost_total{reason=in_queues}")
        + counts.get("muppet_overflow_dropped_total")
        + counts.get("muppet_dead_letters_total")
}

/// The reads of one open-loop phase: `rate` per second for `secs`, every
/// `local_every`-th one answered by the owner itself.
struct ReadPlan<'a> {
    targets: &'a [ReadTarget],
    rate: f64,
    secs: f64,
    seed: u64,
    local_every: Option<usize>,
}

fn open_loop(
    cluster: &Cluster,
    probe: &Probe,
    phase: Phase,
    rate: f64,
    events: Events,
    offsets_us: &[u64],
    reads: &ReadPlan,
) -> Result<Loaded, String> {
    probe.set_phase(phase);
    let before = cluster.snapshot();
    let stop = AtomicBool::new(false);
    let sink = ClusterSink(cluster);
    // One sequential reader sustains about 500 reads/s against the
    // server's 2 ms accept poll, so the schedule is split over as many
    // readers as keep each one under half of that.
    let readers = (reads.rate / READS_PER_READER).ceil().max(1.0) as u64;
    // Whole seconds of load; a phase shorter than one still has a window.
    let seconds = (reads.secs.floor() as usize).max(1);
    let schedules: Vec<Vec<u64>> = (0..readers)
        .map(|i| {
            let per_reader = reads.rate / readers as f64;
            poisson_offsets(per_reader, Duration::from_secs_f64(reads.secs), reads.seed ^ (i << 32))
        })
        .collect();
    let (t0, cpu0, gen0) = (Instant::now(), process_cpu_s(), thread_cpu_s());
    let (issued, reads, sampled, wall_s, gen_cpu_s, proc_cpu_s) = std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_until(cluster, &stop));
        let readers: Vec<_> = schedules
            .iter()
            .map(|offsets| {
                s.spawn(|| read_loop(probe, reads.targets, offsets, reads.local_every, seconds))
            })
            .collect();
        let issued = openloop::replay(&sink, probe, events, offsets_us);
        let gen_cpu_s = thread_cpu_s() - gen0;
        let mut reads = Reads::new(seconds);
        for reader in readers {
            reads.absorb(&reader.join().map_err(|_| "reader thread panicked")?);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let proc_cpu_s = process_cpu_s() - cpu0;
        stop.store(true, Ordering::Release);
        let sampled = sampler.join().map_err(|_| "sampler thread panicked")?;
        Ok::<_, String>((issued, reads, sampled, wall_s, gen_cpu_s, proc_cpu_s))
    })?;
    cluster.quiesce(Duration::from_secs(60))?;
    let delta = cluster.snapshot().since(&before);
    let latency_over_limit = probe.latency(phase).count_above(LIMIT_US);
    Ok(Loaded {
        rate,
        issued,
        reads,
        sampled,
        delta,
        wall_s,
        gen_cpu_s,
        proc_cpu_s,
        latency_over_limit,
        seconds,
    })
}

/// The closed-loop flood and the checkpoint after it, the only one of the
/// run: it flushes every slate dirtied since set-up.
struct Flooded {
    events: u64,
    issued: Issued,
    /// Events ÷ (first submit → quiescence), per segment and their median.
    segment_rates: Vec<f64>,
    events_per_s: f64,
    /// Summed over the segments: load-on wall time, process CPU, and the
    /// generator thread's share of it.
    wall_s: f64,
    proc_cpu_s: f64,
    gen_cpu_s: f64,
    checkpoint_drain_s: f64,
    checkpoint_flush_s: f64,
    checkpoint_flushed: f64,
    /// Registry deltas over the flood, before its checkpoint.
    delta: Snapshot,
}

/// The flood runs as this many equal segments, each to quiescence: its
/// rate is the median over them, which one slow stretch of the box cannot
/// move.
const FLOOD_SEGMENTS: usize = 8;

fn flood(cluster: &Cluster, probe: &Probe, events: Events) -> Result<Flooded, String> {
    probe.set_phase(Phase::Flood);
    let before = cluster.snapshot();
    let sink = ClusterSink(cluster);
    let mut issued = Issued::default();
    let mut rates = Vec::new();
    let (mut wall_s, mut proc_cpu_s, mut gen_cpu_s) = (0.0, 0.0, 0.0);
    for segment in 0..FLOOD_SEGMENTS {
        let (from, to) =
            (events.len * segment / FLOOD_SEGMENTS, events.len * (segment + 1) / FLOOD_SEGMENTS);
        if from == to {
            continue;
        }
        let part = Events { pool: events.pool, first: events.first + from, len: to - from };
        let (t0, cpu0, gen0) = (Instant::now(), process_cpu_s(), thread_cpu_s());
        let sent = openloop::flood(&sink, probe, part);
        gen_cpu_s += thread_cpu_s() - gen0;
        let stable_since = cluster.quiesce(Duration::from_secs(120))?;
        proc_cpu_s += process_cpu_s() - cpu0;
        let wall = stable_since.saturating_duration_since(t0).as_secs_f64();
        rates.push(part.len as f64 / wall);
        wall_s += wall;
        issued.events += sent.events;
        issued.frames += sent.frames;
        issued.failed += sent.failed;
        issued.submit_ns += sent.submit_ns;
    }
    let flooded = cluster.snapshot();
    let (drain, flush) = cluster.checkpoint()?;
    let after = cluster.snapshot();
    Ok(Flooded {
        events: events.len as u64,
        issued,
        events_per_s: crate::stats::quartiles(&rates)[1],
        segment_rates: rates,
        wall_s,
        proc_cpu_s,
        gen_cpu_s,
        checkpoint_drain_s: drain.as_secs_f64(),
        checkpoint_flush_s: flush.as_secs_f64(),
        checkpoint_flushed: after.get("muppet_cache_flush_writes_total")
            - flooded.get("muppet_cache_flush_writes_total"),
        delta: flooded.since(&before),
    })
}

/// Readers per owner node in [`verify`]: a cold slate costs its owner a
/// store round trip, and round trips overlap.
const VERIFY_THREADS_PER_NODE: usize = 4;

/// Compare every slate the run's traffic touched with the reference, each
/// read by `read_slate` on the node that owns the key (which merges split
/// subslates). Returns ⟨keys checked, keys that differ⟩ and up to five
/// examples.
fn verify(
    cluster: &Cluster,
    updater: &str,
    expected: &BTreeMap<Key, String>,
) -> (u64, u64, Vec<String>) {
    let mut shares: Vec<Vec<(&Key, &String)>> =
        vec![Vec::new(); cluster.nodes.len() * VERIFY_THREADS_PER_NODE];
    for (i, (key, want)) in expected.iter().enumerate() {
        let owner = cluster.nodes[0].owner_machine(updater, key).unwrap_or(0);
        shares[owner * VERIFY_THREADS_PER_NODE + i % VERIFY_THREADS_PER_NODE].push((key, want));
    }
    let wrong: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(share, keys)| {
                let node = &cluster.nodes[share / VERIFY_THREADS_PER_NODE];
                s.spawn(move || {
                    keys.iter()
                        .filter_map(|(key, want)| {
                            let got = node.read_slate(updater, key).map(|b| canonical(&b));
                            (got.as_ref() != Some(*want))
                                .then(|| format!("{key:?}: expected {want}, got {got:?}"))
                        })
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|_| vec!["a verify thread panicked".into()]))
            .collect()
    });
    (expected.len() as u64, wrong.len() as u64, wrong.into_iter().take(5).collect())
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Run one workload; the caller prints the outcome.
pub fn run(spec: &'static Spec, opts: &Options) -> Result<Outcome, String> {
    let mut metrics: Vec<Metric> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut m = |name: &str, unit: &'static str, value: f64| {
        metrics.push(Metric::new(name, unit, value));
    };

    // ---- phase 0: set-up (timed) ----
    let t_setup = Instant::now();
    let plan = Plan::new(spec, opts);
    let Expected { seed, slates: expected, rate: reference_rate } =
        reference(spec, &plan.prepopulate, plan.all())?;
    let [fill_events, warm_events, flood_events, base_events, traced_events, peak_events] =
        plan.slices();
    // Per traced event: a span per operator call (a mapper fans out to a
    // little over one update) and a share of a frame's and a read's.
    let span_capacity =
        if opts.trace { plan.traced.len() * (spec.op_names().len() + 1) + 65_536 } else { 0 };
    let probe = Probe::new(span_capacity);
    std::fs::create_dir_all(&opts.run_root)
        .map_err(|e| format!("create {}: {e}", opts.run_root.display()))?;
    let dir = opts.run_root.join(std::process::id().to_string());
    let cluster = Cluster::start(spec, &probe, &dir, &seed)?;
    drop(seed);
    let sink = ClusterSink(&cluster);
    let filled = openloop::flood(&sink, &probe, fill_events);
    let warm = openloop::replay(&sink, &probe, warm_events, &plan.warm);
    cluster.quiesce(Duration::from_secs(60))?;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x4ead);
    let all_keys: Vec<&Key> = expected.keys().collect();
    let read_keys: Vec<Key> = (0..READ_KEYS.min(all_keys.len()))
        .map(|_| all_keys[rng.gen_range(0..all_keys.len())].clone())
        .collect();
    let targets = read_targets(&cluster, spec.terminal(), &read_keys);
    let setup_s = t_setup.elapsed().as_secs_f64();
    m("setup_s", "s", setup_s);
    m("reference.events_per_s", "events/s", reference_rate);

    // ---- phase 1: base (open loop), then its traced repeat ----
    let disk_after_setup = cluster.disk_bytes();
    let reads = |rate: f64, secs: f64, salt: u64, local_every: Option<usize>| ReadPlan {
        targets: &targets,
        rate,
        secs,
        seed: opts.seed ^ salt,
        local_every,
    };
    let base = open_loop(
        &cluster,
        &probe,
        Phase::Base,
        spec.rate_base,
        base_events,
        &plan.base,
        &reads(spec.read_rate_base, plan.base_s, 0x4ead_ba5e, None),
    )?;
    let base_latency = probe.latency(Phase::Base);
    let (base_p50, base_p99) = base.best_second_latency(&probe, Phase::Base);
    m("lat_p50_us", "us", base_p50);
    m("lat_p99_us", "us", base_p99);
    m("cpu_us_per_event", "us", base.best_second_cpu_us_per_event());
    m("read_p50_us", "us", base.best_second_read_p50());
    m("read_p99_us", "us", base.reads.remote_us.p99());
    let traced = if opts.trace {
        probe.set_tracing(true);
        let traced = open_loop(
            &cluster,
            &probe,
            Phase::Traced,
            spec.rate_base,
            traced_events,
            &plan.traced,
            &reads(spec.read_rate_base, plan.traced_s, 0x4ead_7ace, Some(4)),
        );
        probe.set_tracing(false);
        Some(traced?)
    } else {
        None
    };

    // ---- phase 2: peak (open loop) ----
    let peak = open_loop(
        &cluster,
        &probe,
        Phase::Peak,
        spec.rate_peak,
        peak_events,
        &plan.peak,
        &reads(spec.read_rate_peak, plan.peak_s, 0x4ead_9eac, None),
    )?;
    let peak_latency = probe.latency(Phase::Peak);
    m("lat_p99_us.peak", "us", peak.best_second_latency(&probe, Phase::Peak).1);
    let sustains = |phase: &Loaded, latency: &Hist| {
        latency.p99() <= LIMIT_US as f64
            && phase.failed_events() == 0
            && phase.sampled.backlog_slope() <= 0.01 * phase.rate
    };
    let sustained = [(&peak, peak_latency), (&base, base_latency)]
        .into_iter()
        .filter(|(phase, latency)| sustains(phase, latency))
        .map(|(phase, _)| phase.achieved_rate())
        .fold(0.0, f64::max);
    m("sustained_events_per_s", "events/s", sustained);

    // ---- phase 3: flood (closed loop), then the run's one checkpoint ----
    let flooded = flood(&cluster, &probe, flood_events)?;
    m("flood_events_per_s", "events/s", flooded.events_per_s);
    m("checkpoint_s", "s", flooded.checkpoint_drain_s + flooded.checkpoint_flush_s);
    m("checkpoint.dirty_flushed", "slates", flooded.checkpoint_flushed);
    m("checkpoint.drain_s", "s", flooded.checkpoint_drain_s);
    m("checkpoint.flush_s", "s", flooded.checkpoint_flush_s);
    let measured_events = base.issued.events
        + traced.as_ref().map_or(0, |t| t.issued.events)
        + peak.issued.events
        + flooded.events;
    let disk_bytes = cluster.disk_bytes().saturating_sub(disk_after_setup);
    m("disk_bytes_per_event", "B", disk_bytes as f64 / measured_events as f64);

    // ---- phase 4: verify ----
    let t_verify = Instant::now();
    let (verified, mismatched, examples) = verify(&cluster, spec.terminal(), &expected);
    let verify_s = t_verify.elapsed().as_secs_f64();
    let bytes_at_rest = cluster.store.disk_bytes();
    // The engines' counters start at zero, so this is the whole run's loss,
    // set-up and flood included.
    let lost_events = lost(&cluster.snapshot()) as u64;
    let proc_cpu = process_cpu_split_s();
    let (threads, rss_peak_kb, ctx_invol) = (
        status_field("Threads"),
        status_field("VmHWM"),
        status_field("nonvoluntary_ctxt_switches"),
    );
    cluster.shutdown();

    let loaded: Vec<&Loaded> =
        [Some(&base), traced.as_ref(), Some(&peak)].into_iter().flatten().collect();
    let events_attempted = filled.events
        + warm.events
        + flooded.events
        + loaded.iter().map(|p| p.issued.events).sum::<u64>();
    let events_failed = filled.failed
        + warm.failed
        + flooded.issued.failed
        + lost_events
        + loaded.iter().map(|p| p.issued.failed + p.latency_over_limit).sum::<u64>();
    let reads_attempted: u64 = loaded.iter().map(|p| p.reads.attempted).sum();
    let reads_failed: u64 = loaded.iter().map(|p| p.reads.failed()).sum();
    let attempted = events_attempted + reads_attempted + verified;
    let failed = events_failed + reads_failed + mismatched;

    for (name, phase, latency) in [("base", &base, base_latency), ("peak", &peak, peak_latency)] {
        let (tail_p, tail) = latency.tail();
        notes.push(format!(
            "{name}: {:.0} events/s for {:.1} s, {} deliveries, p50 {:.0} us, p99 {:.0} us, \
             p{} {:.0} us, max {} us; {} reads, read p99 {:.0} us; gen late p99 {:.0} us, backlog \
             slope {:+.1} events/s, lost {}",
            phase.rate,
            phase.wall_s,
            latency.count(),
            latency.percentile(0.5),
            latency.p99(),
            tail_p * 100.0,
            tail,
            latency.max(),
            phase.reads.attempted,
            phase.reads.remote_us.p99(),
            phase.issued.late_us.percentile(0.99),
            phase.sampled.backlog_slope(),
            lost(&phase.delta),
        ));
    }
    notes.push(format!(
        "flood segments (events/s): {:?}; flood CPU {:.2} us/event, peak CPU {:.2} us/event",
        flooded.segment_rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        flooded.proc_cpu_s * 1e6 / flooded.events as f64,
        peak.proc_cpu_s * 1e6 / peak.issued.events as f64,
    ));
    notes.push(format!(
        "flood: {} events in {:.2} s ({:.2} s CPU); verify: {verified} keys in {verify_s:.2} s, \
         {mismatched} differ; events failed {events_failed} ({lost_events} lost), reads failed \
         {reads_failed}",
        flooded.events, flooded.wall_s, flooded.proc_cpu_s
    ));
    notes.extend(examples.iter().map(|e| format!("MISMATCH {e}")));

    // ---- the per-layer pass (traced runs only) ----
    if let Some(traced) = &traced {
        let depth = spec.op_names().len();
        let (spans, dropped) = probe.take_spans();
        if let Some(path) = &opts.trace_out {
            trace::write_jsonl(path, &spans, spec.op_names())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        let t = trace::analyze(&spans, depth);
        if dropped > 0 {
            notes.push(format!("span buffer overflowed: {dropped} spans dropped"));
        }
        let slates: Vec<Vec<u8>> =
            expected.values().take(256).map(|s| s.clone().into_bytes()).collect();
        let frame_len = (spec.rate_base * TICK_US as f64 / 1e6).round() as usize;
        // Slates per store write as the flood saw them; a workload that
        // only flushes at its checkpoint writes full batches.
        let flood = &flooded.delta;
        let flush_batch = ratio(
            flood.get("muppet_flush_batch_slates_sum"),
            flood.get("muppet_flush_batch_slates_count"),
        );
        let flush_batch = if flush_batch >= 1.0 { flush_batch.round() as usize } else { 256 };
        let costs = layers::measure(
            &plan.pool[..plan.pool.len().min(4_096)],
            &slates,
            spec.terminal(),
            frame_len,
            flush_batch,
            &opts.run_root.join(format!("{}-layers", std::process::id())),
        )?;
        // Tracing overhead: best-second p50 with spans on against off.
        let traced_p50 = traced.best_second_latency(&probe, Phase::Traced).0;
        layer_metrics(
            spec,
            &mut metrics,
            &mut notes,
            traced,
            &flooded,
            &t,
            &costs,
            traced_p50,
            base_p50,
        );
        let mut m = |name: &str, unit: &'static str, value: f64| {
            metrics.push(Metric::new(name, unit, value));
        };
        m("store.bytes_at_rest", "B", bytes_at_rest as f64);
        m("proc.cpu_user_s", "s", proc_cpu.0);
        m("proc.cpu_sys_s", "s", proc_cpu.1);
        m("proc.ctx_switches_invol", "count", ctx_invol);
        m("proc.rss_peak_mb", "MB", rss_peak_kb / 1024.0);
        m("proc.threads", "count", threads);
    }

    let phases = [
        ("warm_up", plan.warm_s),
        ("flood", flooded.wall_s),
        ("base", plan.base_s),
        ("traced_base", plan.traced_s),
        ("peak", plan.peak_s),
    ];
    Ok(Outcome {
        workload: spec.name,
        traced: opts.trace,
        metrics,
        attempted,
        failed,
        notes,
        stamp: crate::proc::stamp(opts.seed, &opts.run_root, &phases),
    })
}

/// The per-layer metrics of the traced base phase (sources a, b and c of
/// the README) and the ledger over the flood.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    spec: &Spec,
    metrics: &mut Vec<Metric>,
    notes: &mut Vec<String>,
    traced: &Loaded,
    flooded: &Flooded,
    t: &trace::TraceStats,
    costs: &LayerCosts,
    traced_p50_us: f64,
    untraced_p50_us: f64,
) {
    let mut m = |name: &str, unit: &'static str, value: f64| {
        metrics.push(Metric::new(name, unit, value));
    };
    let d = &traced.delta;
    let events = traced.issued.events as f64;

    // gen, ingest, ingestlog
    m("gen.late_p99_us", "us", traced.issued.late_us.percentile(0.99));
    m("gen.cpu_share", "%", pct(traced.gen_cpu_s, traced.proc_cpu_s));
    m("ingest.submit_ns_per_event", "ns", ratio(traced.issued.submit_ns as f64, events));
    m("ingest.throttle_waits", "count", d.get("muppet_throttle_waits_total"));
    let (records, syncs) =
        (d.get("muppet_wal_ingest_records_total"), d.get("muppet_wal_ingest_syncs_total"));
    m("ingestlog.records", "count", records);
    m("ingestlog.syncs", "count", syncs);
    m("ingestlog.events_per_sync", "events", ratio(records, syncs));

    // queue, dispatch
    m(
        "queue.drain_batch_mean",
        "events",
        ratio(d.get("muppet_drain_batch_events_sum"), d.get("muppet_drain_batch_events_count")),
    );
    let queue_wait = "muppet_stage_latency_us{stage=queue_wait}";
    m("queue.wait_p50_us", "us", d.hist_percentile_us(queue_wait, 0.5));
    m("queue.wait_p99_us", "us", d.hist_percentile_us(queue_wait, 0.99));
    m("queue.pending_max", "events", traced.sampled.pending_max);
    m("queue.backlog_slope", "events/s", traced.sampled.backlog_slope());
    let combined = d.get("muppet_combined_events_total");
    let last = spec.op_names().len() - 1;
    let (map_ops, update) = (&t.ops[..last], &t.ops[last]);
    m("dispatch.combined_events", "count", combined);
    m("dispatch.fold_ratio", "%", pct(combined, combined + update.calls as f64));
    m("dispatch.split_keys_active", "count", d.get("muppet_split_keys_active"));
    m("dispatch.forwarded", "count", d.get("muppet_events_forwarded_total"));

    // op, transit
    let map_calls: u64 = map_ops.iter().map(|o| o.calls).sum();
    let map_ns: u64 = map_ops.iter().map(|o| o.busy_ns).sum();
    let map_emits: u64 = map_ops.iter().map(|o| o.emitted).sum();
    m("op.map.calls", "count", map_calls as f64);
    m("op.map.ns_per_call", "ns", ratio(map_ns as f64, map_calls as f64));
    m("op.map.emits_per_call", "events", ratio(map_emits as f64, map_calls as f64));
    m("op.update.calls", "count", update.calls as f64);
    m("op.update.ns_per_call", "ns", update.ns_per_call());
    let worker_ns = traced.wall_s * 1e9 * (MACHINES * 2) as f64;
    m("op.busy_share", "%", pct((map_ns + update.busy_ns) as f64, worker_ns));
    m("transit.first_p50_us", "us", t.transit_first_us.percentile(0.5));
    m("transit.first_p99_us", "us", t.transit_first_us.p99());
    m("transit.hop_p50_us", "us", t.transit_hop_us.percentile(0.5));
    m("transit.hop_p99_us", "us", t.transit_hop_us.p99());

    // cache, slate
    let (hits, misses) = (d.get("muppet_cache_hits_total"), d.get("muppet_cache_misses_total"));
    m("cache.hits", "count", hits);
    m("cache.misses", "count", misses);
    m("cache.hit_ratio", "%", pct(hits, hits + misses));
    m("cache.miss_coalesced", "count", d.get("muppet_cache_miss_coalesced_total"));
    m("cache.evictions", "count", d.get("muppet_cache_evictions_total"));
    m("cache.store_loads", "count", d.get("muppet_cache_store_loads_total"));
    m("cache.store_round_trips", "count", d.get("muppet_cache_store_round_trips_total"));
    m("cache.flush_writes", "count", d.get("muppet_cache_flush_writes_total"));
    m(
        "cache.flush_batch_mean",
        "slates",
        ratio(d.get("muppet_flush_batch_slates_sum"), d.get("muppet_flush_batch_slates_count")),
    );
    m("cache.dirty_max", "slates", traced.sampled.dirty_max);
    m("slate.parses_per_event", "1/event", ratio(d.get("muppet_slate_parses_total"), events));
    m(
        "slate.serializations_per_event",
        "1/event",
        ratio(d.get("muppet_slate_serializations_total"), events),
    );

    // net, store
    let wire_events = d.get("muppet_net_batched_events_sent_total");
    m("net.frames_sent", "count", d.get("muppet_net_frames_sent_total"));
    m("net.batches_sent", "count", d.get("muppet_net_batches_sent_total"));
    m("net.events_per_batch", "events", ratio(wire_events, d.get("muppet_net_batches_sent_total")));
    m("net.remote_share", "%", pct(wire_events, d.get("muppet_events_processed_total")));
    m("net.queue_full_waits", "count", d.get("muppet_net_queue_full_waits_total"));
    m("net.send_failures", "count", d.get("muppet_net_send_failures_total"));
    m("net.outbound_backlog_max", "events", traced.sampled.outbound_max);
    m("store.wal_syncs", "count", d.get("muppet_wal_syncs_total"));
    m(
        "store.flush_p50_us",
        "us",
        d.hist_percentile_us("muppet_stage_latency_us{stage=flush}", 0.5),
    );

    // http, obs
    m("http.reads", "count", traced.reads.attempted as f64);
    m("http.read_errors", "count", traced.reads.errors as f64);
    m("http.read_local_p50_us", "us", traced.reads.local_us.percentile(0.5));
    m("http.read_remote_p50_us", "us", traced.reads.remote_us.percentile(0.5));
    let snaps = &traced.sampled.snapshot_ms;
    m("obs.snapshot_ms", "ms", ratio(snaps.iter().sum::<f64>(), snaps.len() as f64));
    m("trace.overhead_pct", "%", pct(traced_p50_us - untraced_p50_us, untraced_p50_us));

    // source (c) and the ledger
    metrics.extend(costs.metrics());
    let flood_updates =
        flooded.delta.get("muppet_events_processed_total") - (last as f64) * flooded.events as f64;
    let mut op_calls: Vec<(&'static str, f64, f64)> = Vec::new();
    if last > 0 {
        op_calls.push(("op map", flooded.events as f64, ratio(map_ns as f64, map_calls as f64)));
    }
    op_calls.push(("op update", flood_updates, update.ns_per_call()));
    let ledger =
        layers::ledger(&flooded.delta, costs, &op_calls, flooded.gen_cpu_s, flooded.proc_cpu_s);
    metrics.push(Metric::new("ledger.accounted_share", "%", ledger.accounted_share() * 100.0));
    notes.push(format!(
        "traced base: {} spans, {} operator calls; best-second p50 {:.0} us traced, {:.0} us not",
        t.spans,
        t.ops.iter().map(|o| o.calls).sum::<u64>(),
        traced_p50_us,
        untraced_p50_us
    ));
    notes.push(ledger.render());
}
