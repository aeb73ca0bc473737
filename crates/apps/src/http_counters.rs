//! Live HTTP request counters per site section (§2's motivating list:
//! "maintaining live counters of the number of HTTP requests made to
//! various parts of a Web site").
//!
//! Workflow: `S1 (request log) → U1`, a single updater keyed by site
//! section whose slates are the live counters: total requests, per-status
//! class counts, and total bytes. The slates are the application's output,
//! queried live over the §4.4 HTTP interface.

use muppet_core::event::Event;
use muppet_core::json::{self, Field, Json};
use muppet_core::operator::{Emitter, Updater};
use muppet_core::slate::Slate;
use muppet_core::workflow::Workflow;

/// External request-log stream.
pub const REQUEST_STREAM: &str = "S1";
/// The updater's name.
pub const SECTION_COUNTER: &str = "section-counter";

/// The request-counting workflow (a single updater — the simplest possible
/// MapUpdate app).
pub fn workflow() -> Workflow {
    let mut b = Workflow::builder("http-counters");
    b.external_stream(REQUEST_STREAM);
    b.updater(SECTION_COUNTER, &[REQUEST_STREAM]);
    b.build().expect("static workflow is valid")
}

/// Per-section counters. Slate JSON:
/// `{"count": n, "status": {"2xx": ..., "3xx": ..., "4xx": ..., "5xx": ...}, "bytes": b}`.
pub struct SectionCounter {
    name: String,
}

impl SectionCounter {
    /// Default-named updater.
    pub fn new() -> Self {
        SectionCounter { name: SECTION_COUNTER.to_string() }
    }

    /// Extract `(count, bytes)` from a slate.
    pub fn totals(slate: &Slate) -> (u64, u64) {
        let v = slate.as_json();
        (
            v.as_ref().and_then(|v| v.get("count").and_then(Json::as_u64)).unwrap_or(0),
            v.as_ref().and_then(|v| v.get("bytes").and_then(Json::as_u64)).unwrap_or(0),
        )
    }

    /// Extract a status-class count (`"2xx"` etc.) from a slate.
    pub fn status_count(slate: &Slate, class: &str) -> u64 {
        slate
            .as_json()
            .and_then(|v| v.get("status").and_then(|s| s.get(class).and_then(Json::as_u64)))
            .unwrap_or(0)
    }
}

impl Default for SectionCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl Updater for SectionCounter {
    fn name(&self) -> &str {
        &self.name
    }

    fn update(&self, _ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        let Ok([status, bytes]) = json::scan(&event.value, ["status", "bytes"]) else { return };
        let status = status.as_ref().and_then(Field::as_u64).unwrap_or(200);
        let bytes = bytes.as_ref().and_then(Field::as_u64).unwrap_or(0);
        let class = match status {
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            _ => "5xx",
        };
        // Resident slate: mutate counters in place, including the nested
        // per-status-class object.
        let state = slate.obj_mut_or(|| {
            Json::obj([
                ("count", Json::num(0)),
                ("status", Json::obj(["2xx", "3xx", "4xx", "5xx"].map(|c| (c, Json::num(0))))),
                ("bytes", Json::num(0)),
            ])
        });
        let count = state.get("count").and_then(Json::as_u64).unwrap_or(0);
        let total_bytes = state.get("bytes").and_then(Json::as_u64).unwrap_or(0);
        state.set("count", Json::num((count + 1) as f64));
        if state.get("status").and_then(Json::as_obj).is_none() {
            // A foreign payload without the nested object: rebuild it.
            state.set("status", Json::obj(["2xx", "3xx", "4xx", "5xx"].map(|c| (c, Json::num(0)))));
        }
        let classes = state.get_mut("status").expect("status object just ensured");
        let n = classes.get(class).and_then(Json::as_u64).unwrap_or(0);
        classes.set(class, Json::num((n + 1) as f64));
        state.set("bytes", Json::num((total_bytes + bytes) as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::event::Key;
    use muppet_core::reference::ReferenceExecutor;
    use muppet_workloads::webrequests::WebRequestGenerator;

    #[test]
    fn counters_match_generated_traffic() {
        let wf = workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_updater(SectionCounter::new());
        let mut gen = WebRequestGenerator::new(4, 1000.0);
        let events = gen.take(REQUEST_STREAM, 2000);
        // Hand-count ground truth.
        let mut expected: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
        for ev in &events {
            let v = Json::from_payload(&ev.value).unwrap();
            let section = ev.key.as_str().unwrap().to_string();
            let bytes = v.get("bytes").unwrap().as_u64().unwrap();
            let e = expected.entry(section).or_default();
            e.0 += 1;
            e.1 += bytes;
        }
        for ev in events {
            exec.push_external(REQUEST_STREAM, ev);
        }
        exec.run_to_completion().unwrap();
        for (section, (count, bytes)) in &expected {
            let slate = exec.slate(SECTION_COUNTER, &Key::from(section.as_str())).unwrap();
            assert_eq!(SectionCounter::totals(slate), (*count, *bytes), "section {section}");
        }
    }

    #[test]
    fn status_classes_bucket_correctly() {
        let wf = workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_updater(SectionCounter::new());
        for (i, status) in [200u32, 201, 304, 404, 500, 503].iter().enumerate() {
            let v = Json::obj([
                ("path", Json::str("/x")),
                ("status", Json::num(*status as f64)),
                ("bytes", Json::num(10)),
            ]);
            exec.push_external(
                REQUEST_STREAM,
                Event::new(
                    REQUEST_STREAM,
                    i as u64,
                    Key::from("home"),
                    v.to_compact().into_bytes(),
                ),
            );
        }
        exec.run_to_completion().unwrap();
        let slate = exec.slate(SECTION_COUNTER, &Key::from("home")).unwrap();
        assert_eq!(SectionCounter::status_count(slate, "2xx"), 2);
        assert_eq!(SectionCounter::status_count(slate, "3xx"), 1);
        assert_eq!(SectionCounter::status_count(slate, "4xx"), 1);
        assert_eq!(SectionCounter::status_count(slate, "5xx"), 2);
        assert_eq!(SectionCounter::totals(slate), (6, 60));
    }
}
