//! What the spans say: per-operator self time, and the `transit` gaps
//! between one hop's end and the next hop's start. `transit` is queue
//! wait + wire + slate fetch in one number; only in-program tracing
//! (ROADMAP item 4) can split it further.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use crate::hist::Hist;
use crate::probe::{Span, KIND_HTTP, KIND_SUBMIT};

#[derive(Default)]
pub struct OpStats {
    pub calls: u64,
    pub busy_ns: u64,
    pub emitted: u64,
}

impl OpStats {
    pub fn ns_per_call(&self) -> f64 {
        self.busy_ns as f64 / self.calls.max(1) as f64
    }
}

#[derive(Default)]
pub struct TraceStats {
    /// Indexed by workflow depth.
    pub ops: Vec<OpStats>,
    /// `submit` return → first operator start, µs (0 when the operator
    /// started before `submit_many` returned).
    pub transit_first_us: Hist,
    /// Operator end → next operator start, µs.
    pub transit_hop_us: Hist,
    pub spans: u64,
}

pub fn analyze(spans: &[Span], depth: usize) -> TraceStats {
    let mut stats =
        TraceStats { ops: (0..depth).map(|_| OpStats::default()).collect(), ..Default::default() };
    stats.spans = spans.len() as u64;
    // Frames by first due time; an event's frame is the last one starting
    // at or before its due time.
    let mut frames: Vec<(u64, u64, u64)> =
        spans.iter().filter(|s| s.kind == KIND_SUBMIT).map(|s| (s.id, s.aux, s.end_ns)).collect();
    frames.sort_unstable();
    // End of each operator span by ⟨depth, id⟩, for the hop below it.
    let mut ends: HashMap<(u8, u64), u64> = HashMap::new();
    for s in spans.iter().filter(|s| (s.kind as usize) < depth) {
        let op = &mut stats.ops[s.kind as usize];
        op.calls += 1;
        op.busy_ns += s.end_ns - s.start_ns;
        op.emitted += s.aux;
        if (s.kind as usize) + 1 < depth {
            ends.insert((s.kind, s.id), s.end_ns);
        }
    }
    for s in spans.iter().filter(|s| (s.kind as usize) < depth) {
        if s.kind == 0 {
            let i = frames.partition_point(|f| f.0 <= s.id);
            if let Some(&(_, last, submit_end)) = i.checked_sub(1).and_then(|i| frames.get(i)) {
                if s.id <= last {
                    stats.transit_first_us.record(s.start_ns.saturating_sub(submit_end) / 1_000);
                }
            }
        } else if let Some(parent_end) = ends.get(&(s.kind - 1, s.id)) {
            stats.transit_hop_us.record(s.start_ns.saturating_sub(*parent_end) / 1_000);
        }
    }
    stats
}

/// One JSON object per span: `{name, id, start, end, parent}` with times
/// in ns from the run's origin.
pub fn write_jsonl(path: &Path, spans: &[Span], op_names: &[&str]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let (name, parent) = match s.kind {
            KIND_SUBMIT => ("submit", "gen"),
            KIND_HTTP => ("http_get", "reader"),
            0 => (op_names[0], "submit"),
            k => (op_names[k as usize], op_names[k as usize - 1]),
        };
        writeln!(
            out,
            r#"{{"name":"{name}","id":{},"start":{},"end":{},"parent":"{parent}","aux":{}}}"#,
            s.id, s.start_ns, s.end_ns, s.aux
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: u8, id: u64, aux: u64, start_us: u64, end_us: u64) -> Span {
        Span { kind, id, aux, start_ns: start_us * 1_000, end_ns: end_us * 1_000 }
    }

    #[test]
    fn self_time_and_transit_come_from_span_gaps() {
        let spans = [
            // A frame of two events (due 100 and 140), submitted 150..170.
            span(KIND_SUBMIT, 100, 140, 150, 170),
            // Event 100: mapped 200..210 (2 emits), updated twice.
            span(0, 100, 2, 200, 210),
            span(1, 100, 0, 1_210, 1_215),
            span(1, 100, 0, 1_300, 1_305),
            // Event 140: its mapper started before submit returned.
            span(0, 140, 1, 160, 165),
            span(1, 140, 0, 400, 420),
        ];
        let t = analyze(&spans, 2);
        assert_eq!((t.ops[0].calls, t.ops[0].busy_ns, t.ops[0].emitted), (2, 15_000, 3));
        assert_eq!((t.ops[1].calls, t.ops[1].busy_ns), (3, 30_000));
        assert_eq!(t.transit_first_us.count(), 2);
        assert_eq!(t.transit_first_us.max(), 30, "200 - 170; the early start clamps to 0");
        assert_eq!(t.transit_hop_us.count(), 3);
        assert_eq!(t.transit_hop_us.max(), 1_090, "1300 - 210");
    }
}
