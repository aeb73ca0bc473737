//! The metrics registry: named atomic handles + pull-style collectors,
//! rendered as Prometheus text exposition.
//!
//! Two registration styles, matching how the workspace's counters
//! actually live:
//!
//! * **Handles** ([`Counter`], [`Histogram`]) — created through the
//!   registry, cloned onto the hot path, recorded with one relaxed atomic
//!   op and zero allocation. Every count the engine records is one of
//!   these.
//! * **Collectors** — closures run at scrape time that emit [`Sample`]s
//!   from state that is not a count or lives in another crate: every
//!   gauge, `TcpStats`, WAL sync counts, the heavy-hitter sketches.
//!
//! [`Registry::render`] merges both into one exposition document.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use muppet_core::sync::Mutex;

use crate::histogram::Histogram;

/// A monotonically increasing counter handle. Clones share the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A 1-in-N sampling gate: one relaxed `fetch_add` per call, hit every
/// `rate()`-th call. N is rounded up to a power of two so the gate is a
/// mask, not a division.
#[derive(Debug)]
pub struct Sampler {
    tick: AtomicU64,
    mask: u64,
}

impl Sampler {
    /// A gate that fires every `n`-th call (rounded up to a power of
    /// two; `n = 0` or `1` fires always).
    pub fn every(n: u64) -> Sampler {
        let n = n.max(1).next_power_of_two();
        Sampler { tick: AtomicU64::new(0), mask: n - 1 }
    }

    /// Count one call; true when this call is sampled.
    pub fn hit(&self) -> bool {
        self.tick.fetch_add(1, Ordering::Relaxed) & self.mask == 0
    }

    /// The effective sampling interval (each hit represents this many
    /// calls).
    pub fn rate(&self) -> u64 {
        self.mask + 1
    }
}

/// A point-in-time histogram reading, as the exposition path needs it.
#[derive(Clone, Debug, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; bucket i covers
    /// `[2^i, 2^(i+1))` µs.
    pub bucket_counts: Vec<u64>,
    /// Sum of recorded values.
    pub sum: u64,
    /// Total samples.
    pub count: u64,
}

/// One scraped value.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Metric family name (must be a valid Prometheus metric name).
    pub name: String,
    /// Label set, in output order.
    pub labels: Vec<(String, String)>,
    /// The value (its variant fixes the family's TYPE).
    pub value: Value,
}

impl Sample {
    /// Convenience: a counter sample.
    pub fn counter(name: &str, labels: &[(&str, &str)], v: u64) -> Sample {
        Sample { name: name.into(), labels: owned_labels(labels), value: Value::Counter(v) }
    }

    /// Convenience: a gauge sample (the only way a gauge reaches the
    /// registry: a collector emits it at scrape time).
    pub fn gauge(name: &str, labels: &[(&str, &str)], v: i64) -> Sample {
        Sample { name: name.into(), labels: owned_labels(labels), value: Value::Gauge(v) }
    }
}

/// A sample's value and kind.
#[derive(Clone, Debug)]
pub enum Value {
    /// Monotone counter.
    Counter(u64),
    /// Point-in-time gauge.
    Gauge(i64),
    /// Bucketed distribution.
    Histogram(HistogramSnapshot),
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Histogram(Arc<Histogram>),
}

struct Family {
    help: String,
    metrics: Vec<(Vec<(String, String)>, Handle)>,
}

type CollectorFn = Box<dyn Fn(&mut Vec<Sample>) + Send + Sync>;

#[derive(Default)]
struct Inner {
    families: BTreeMap<String, Family>,
    collectors: Vec<CollectorFn>,
}

/// The registry: the one place every subsystem's metrics meet.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Registry")
            .field("families", &inner.families.len())
            .field("collectors", &inner.collectors.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Get or create a counter with labels. Repeated calls with the same
    /// ⟨name, labels⟩ return handles sharing one cell.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.handle(name, help, labels, || Handle::Counter(Counter::default())) {
            Handle::Counter(c) => c,
            Handle::Histogram(_) => panic!("metric {name} already registered as a histogram"),
        }
    }

    /// Get or create an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, help, &[])
    }

    /// Get or create a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.handle(name, help, labels, || Handle::Histogram(Arc::new(Histogram::new()))) {
            Handle::Histogram(h) => h,
            Handle::Counter(_) => panic!("metric {name} already registered as a counter"),
        }
    }

    /// The handle registered under ⟨`name`, `labels`⟩, or a new one from
    /// `make`.
    fn handle(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let labels = owned_labels(labels);
        let mut inner = self.inner.lock();
        let family = inner
            .families
            .entry(name.to_string())
            .or_insert_with(|| Family { help: help.to_string(), metrics: Vec::new() });
        if let Some((_, handle)) = family.metrics.iter().find(|(ls, _)| *ls == labels) {
            return handle.clone();
        }
        let handle = make();
        family.metrics.push((labels, handle.clone()));
        handle
    }

    /// Register a pull-style collector: called at every scrape to emit
    /// samples from state living outside the registry.
    pub fn collector(&self, f: impl Fn(&mut Vec<Sample>) + Send + Sync + 'static) {
        self.inner.lock().collectors.push(Box::new(f));
    }

    /// Collect every sample: handle families first, then collector
    /// output.
    pub fn gather(&self) -> Vec<Sample> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        for (name, family) in &inner.families {
            for (labels, handle) in &family.metrics {
                let value = match handle {
                    Handle::Counter(c) => Value::Counter(c.get()),
                    Handle::Histogram(h) => Value::Histogram(HistogramSnapshot {
                        bucket_counts: h.bucket_counts(),
                        sum: h.sum_us(),
                        count: h.count(),
                    }),
                };
                out.push(Sample { name: name.clone(), labels: labels.clone(), value });
            }
        }
        for collect in &inner.collectors {
            collect(&mut out);
        }
        out
    }

    /// Render the Prometheus text exposition (`text/plain; version=0.0.4`).
    pub fn render(&self) -> String {
        let samples = self.gather();
        // Group per family so HELP/TYPE lines appear once, families in
        // name order.
        let mut by_family: BTreeMap<String, Vec<Sample>> = BTreeMap::new();
        for s in samples {
            by_family.entry(s.name.clone()).or_default().push(s);
        }
        let helps: BTreeMap<String, String> = {
            let inner = self.inner.lock();
            inner.families.iter().map(|(n, f)| (n.clone(), f.help.clone())).collect()
        };
        let mut out = String::new();
        for (name, samples) in by_family {
            let kind = match samples[0].value {
                Value::Counter(_) => "counter",
                Value::Gauge(_) => "gauge",
                Value::Histogram(_) => "histogram",
            };
            if let Some(help) = helps.get(&name) {
                if !help.is_empty() {
                    out.push_str(&format!("# HELP {name} {}\n", escape_help(help)));
                }
            }
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for s in samples {
                render_sample(&mut out, &s);
            }
        }
        out
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_labels(out: &mut String, labels: &[(String, String)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{}\"", escape_label_value(v)));
    }
    out.push('}');
}

fn render_sample(out: &mut String, s: &Sample) {
    match &s.value {
        Value::Counter(v) => {
            out.push_str(&s.name);
            render_labels(out, &s.labels);
            out.push_str(&format!(" {v}\n"));
        }
        Value::Gauge(v) => {
            out.push_str(&s.name);
            render_labels(out, &s.labels);
            out.push_str(&format!(" {v}\n"));
        }
        Value::Histogram(h) => {
            // Cumulative `le` buckets up to the last non-empty one, then
            // +Inf; bounds are the histogram's power-of-two µs bounds.
            let last = h.bucket_counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            let mut cum = 0u64;
            for (i, &c) in h.bucket_counts.iter().take(last).enumerate() {
                cum += c;
                let mut labels = s.labels.clone();
                labels.push(("le".into(), Histogram::bucket_upper_bound(i).to_string()));
                out.push_str(&format!("{}_bucket", s.name));
                render_labels(out, &labels);
                out.push_str(&format!(" {cum}\n"));
            }
            let mut labels = s.labels.clone();
            labels.push(("le".into(), "+Inf".into()));
            out.push_str(&format!("{}_bucket", s.name));
            render_labels(out, &labels);
            out.push_str(&format!(" {}\n", h.count));
            out.push_str(&format!("{}_sum", s.name));
            render_labels(out, &s.labels);
            out.push_str(&format!(" {}\n", h.sum));
            out.push_str(&format!("{}_count", s.name));
            render_labels(out, &s.labels);
            out.push_str(&format!(" {}\n", h.count));
        }
    }
}

/// One line of a parsed exposition document.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedSample {
    /// Metric name as written (histogram lines keep their `_bucket` /
    /// `_sum` / `_count` suffixes).
    pub name: String,
    /// Parsed label set.
    pub labels: Vec<(String, String)>,
    /// The numeric value (`+Inf` parses as [`f64::INFINITY`]).
    pub value: f64,
}

impl ParsedSample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parse a Prometheus text exposition document — the round-trip check
/// for what [`Registry::render`] emits (and the scrape side of
/// `tests/observability.rs`). Comments and blank lines are skipped.
pub fn parse_exposition(text: &str) -> Result<Vec<ParsedSample>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
        let (name_and_labels, value_str) = match line.rfind(' ') {
            Some(i) => (&line[..i], line[i + 1..].trim()),
            None => return Err(err("no value")),
        };
        let (name, labels) = match name_and_labels.find('{') {
            Some(open) => {
                let name = &name_and_labels[..open];
                let rest = &name_and_labels[open + 1..];
                let close = rest.rfind('}').ok_or_else(|| err("unterminated label set"))?;
                (name, parse_labels(&rest[..close]).map_err(|e| err(&e))?)
            }
            None => (name_and_labels, Vec::new()),
        };
        if name.is_empty()
            || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(err("invalid metric name"));
        }
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse::<f64>().map_err(|_| err("invalid value"))?,
        };
        out.push(ParsedSample { name: name.to_string(), labels, value });
    }
    Ok(out)
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key}: expected opening quote"));
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some(other) => value.push(other),
                    None => return Err("dangling escape".into()),
                },
                '"' => {
                    closed = true;
                    break;
                }
                other => value.push(other),
            }
        }
        if !closed {
            return Err(format!("label {key}: unterminated value"));
        }
        labels.push((key.trim().to_string(), value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_one_cell() {
        let reg = Registry::new();
        let a = reg.counter("x_total", "a test counter");
        let b = reg.counter("x_total", "a test counter");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn labeled_metrics_are_distinct_series() {
        let reg = Registry::new();
        let a = reg.counter_with("y_total", "", &[("op", "count")]);
        let b = reg.counter_with("y_total", "", &[("op", "top")]);
        a.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
        let text = reg.render();
        assert!(text.contains("y_total{op=\"count\"} 1"), "{text}");
        assert!(text.contains("y_total{op=\"top\"} 0"), "{text}");
    }

    #[test]
    fn render_emits_help_and_type_once_per_family() {
        let reg = Registry::new();
        reg.counter_with("z_total", "the z counter", &[("k", "a")]);
        reg.counter_with("z_total", "the z counter", &[("k", "b")]);
        let text = reg.render();
        assert_eq!(text.matches("# HELP z_total the z counter").count(), 1);
        assert_eq!(text.matches("# TYPE z_total counter").count(), 1);
    }

    #[test]
    fn histogram_renders_cumulative_le_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat_us", "latency");
        h.record(1); // bucket 0, le=2
        h.record(3); // bucket 1, le=4
        h.record(3);
        let text = reg.render();
        assert!(text.contains("lat_us_bucket{le=\"2\"} 1"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"4\"} 3"), "{text}");
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_us_sum 7"), "{text}");
        assert!(text.contains("lat_us_count 3"), "{text}");
    }

    #[test]
    fn collectors_run_at_scrape_time() {
        let reg = Registry::new();
        let n = Arc::new(AtomicU64::new(41));
        let n2 = Arc::clone(&n);
        reg.collector(move |out| {
            out.push(Sample::counter("ext_total", &[], n2.load(Ordering::Relaxed)));
        });
        n.fetch_add(1, Ordering::Relaxed);
        let text = reg.render();
        assert!(text.contains("ext_total 42"), "{text}");
    }

    #[test]
    fn exposition_round_trips() {
        let reg = Registry::new();
        let c = reg.counter("events_total", "all \"events\"\nand \\slashes");
        c.add(7);
        reg.collector(|out| out.push(Sample::gauge("depth", &[("peer", "a\"b\\c")], -5)));
        let h = reg.histogram_with("lat_us", "", &[("stage", "ingest")]);
        h.record(100);
        h.record(200_000);
        let text = reg.render();
        let parsed = parse_exposition(&text).expect("our own exposition must parse");
        let find = |name: &str| parsed.iter().filter(|s| s.name == name).collect::<Vec<_>>();
        assert_eq!(find("events_total")[0].value, 7.0);
        let depth = find("depth")[0].clone();
        assert_eq!(depth.value, -5.0);
        assert_eq!(depth.label("peer"), Some("a\"b\\c"));
        assert_eq!(find("lat_us_count")[0].value, 2.0);
        assert_eq!(find("lat_us_sum")[0].value, 200_100.0);
        let inf = find("lat_us_bucket")
            .into_iter()
            .find(|s| s.label("le") == Some("+Inf"))
            .expect("+Inf bucket");
        assert_eq!(inf.value, 2.0);
        assert_eq!(inf.label("stage"), Some("ingest"));
        // Bucket counts must be cumulative and end at the total count.
        let buckets = parsed.iter().filter(|s| s.name == "lat_us_bucket").collect::<Vec<_>>();
        let mut prev = 0.0;
        for b in &buckets {
            assert!(b.value >= prev, "cumulative buckets never decrease");
            prev = b.value;
        }
    }

    #[test]
    fn sampler_hits_every_nth() {
        let s = Sampler::every(4);
        let hits = (0..16).filter(|_| s.hit()).count();
        assert_eq!(hits, 4);
        assert_eq!(s.rate(), 4);
        // Non-power-of-two rounds up.
        assert_eq!(Sampler::every(5).rate(), 8);
        assert_eq!(Sampler::every(0).rate(), 1);
        assert!(Sampler::every(1).hit());
    }
}
