//! Counting Foursquare checkins per retailer — Example 1 / Example 4 /
//! Figure 1(b), with the operator code of Figures 3 and 4 ported from Java.
//!
//! Workflow: `S1 (checkins) → M1 RetailerMapper → S2 → U1 Counter`.
//! The output of the application is the set of slates maintained by U1.

use std::borrow::Cow;

use muppet_core::event::{Event, Key};
use muppet_core::json::{self, Field};
use muppet_core::operator::{Emitter, Mapper, Updater};
use muppet_core::slate::Slate;
use muppet_core::workflow::Workflow;

/// The stream names used by this app.
pub const CHECKIN_STREAM: &str = "S1";
/// Internal stream from mapper to counter.
pub const RETAILER_STREAM: &str = "S2";
/// The mapper's name.
pub const MAPPER: &str = "retailer-mapper";
/// The updater's name.
pub const COUNTER: &str = "retailer-counter";

/// Figure 1(b): S1 → M1 → S2 → U1.
pub fn workflow() -> Workflow {
    let mut b = Workflow::builder("retailer-count");
    b.external_stream(CHECKIN_STREAM);
    b.mapper_publishing(MAPPER, &[CHECKIN_STREAM], &[RETAILER_STREAM]);
    b.updater(COUNTER, &[RETAILER_STREAM]);
    b.build().expect("static workflow is valid")
}

/// Case-insensitive "does `hay` contain `needle`" without allocating.
fn contains_ci(hay: &str, needle: &str) -> bool {
    if needle.is_empty() || hay.len() < needle.len() {
        return needle.is_empty();
    }
    let hay = hay.as_bytes();
    let needle = needle.as_bytes();
    hay.windows(needle.len()).any(|w| w.eq_ignore_ascii_case(needle))
}

/// The pattern matching of Figure 3 (`(?i)\s*wal.*mart.*` etc.), extended
/// to all retailers the workloads generate. Returns the canonical retailer
/// name for a venue, if any.
pub fn match_retailer(venue: &str) -> Option<&'static str> {
    // Figure 3: "(?i)\\s*wal.*mart.*"
    if let Some(wal) = find_ci(venue, "wal") {
        if contains_ci(&venue[wal..], "mart") {
            return Some("Walmart");
        }
    }
    // Figure 3: "(?i)\\s*sam.*s\\s*club\\s*"
    if contains_ci(venue, "sam") && contains_ci(venue, "club") {
        return Some("Sam's Club");
    }
    if let Some(best) = find_ci(venue, "best") {
        if contains_ci(&venue[best..], "buy") {
            return Some("Best Buy");
        }
    }
    if contains_ci(venue, "target") {
        return Some("Target");
    }
    if contains_ci(venue, "penney") {
        return Some("JCPenney");
    }
    None
}

fn find_ci(hay: &str, needle: &str) -> Option<usize> {
    let h = hay.as_bytes();
    let n = needle.as_bytes();
    if n.len() > h.len() {
        return None;
    }
    (0..=h.len() - n.len()).find(|&i| h[i..i + n.len()].eq_ignore_ascii_case(n))
}

/// The Figure 3 mapper: inspect each checkin; if it happened at a
/// recognized retailer, emit the checkin to [`RETAILER_STREAM`] keyed by
/// the retailer.
pub struct RetailerMapper {
    name: String,
}

impl RetailerMapper {
    /// A mapper under the default name.
    pub fn new() -> Self {
        RetailerMapper { name: MAPPER.to_string() }
    }

    /// A mapper registered under a custom function name (the same code can
    /// serve as different functions, Appendix A).
    pub fn named(name: impl Into<String>) -> Self {
        RetailerMapper { name: name.into() }
    }

    /// Extract the venue name from a checkin payload (the `getVenue` of
    /// Figure 3, here a validating field scan), borrowed from the payload.
    pub fn venue_of(event: &Event) -> Option<Cow<'_, str>> {
        let [venue] = json::scan(&event.value, ["venue"]).ok()?;
        match venue?.as_obj()?.fields(["name"]) {
            [Some(Field::Str(name))] => Some(name),
            _ => None,
        }
    }
}

impl Default for RetailerMapper {
    fn default() -> Self {
        Self::new()
    }
}

impl Mapper for RetailerMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, ctx: &mut dyn Emitter, event: &Event) {
        let Some(venue) = Self::venue_of(event) else { return };
        if let Some(retailer) = match_retailer(&venue) {
            // Figure 3: submitter.publish("S_2", retailer, event).
            ctx.publish_shared(RETAILER_STREAM, Key::from(retailer), event.value.clone());
        }
    }
}

/// The Figure 4 counter updater: slate is a decimal string; parse-or-zero,
/// increment, replace.
pub struct Counter {
    name: String,
}

impl Counter {
    /// A counter under the default name.
    pub fn new() -> Self {
        Counter { name: COUNTER.to_string() }
    }

    /// A counter registered under a custom function name.
    pub fn named(name: impl Into<String>) -> Self {
        Counter { name: name.into() }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Updater for Counter {
    fn name(&self) -> &str {
        &self.name
    }

    fn update(&self, _ctx: &mut dyn Emitter, _event: &Event, slate: &mut Slate) {
        // Figure 4 verbatim: parse (0 on NumberFormatException), ++count,
        // replaceSlate.
        slate.incr_counter(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::json::Json;
    use muppet_core::reference::ReferenceExecutor;
    use muppet_workloads::checkins::{canonical_retailer, CheckinGenerator};

    #[test]
    fn pattern_matching_agrees_with_ground_truth_vocabulary() {
        // The mapper's Figure-3-style matching must agree with the
        // generator's canonical mapping on every venue it can emit.
        let gen = CheckinGenerator::new(1, 10, 100.0);
        for venue in gen.venues() {
            assert_eq!(
                match_retailer(venue),
                canonical_retailer(venue),
                "disagreement on venue {venue:?}"
            );
        }
    }

    #[test]
    fn figure_3_patterns() {
        assert_eq!(match_retailer("Wal-Mart #1234"), Some("Walmart"));
        assert_eq!(match_retailer("WALMART"), Some("Walmart"));
        assert_eq!(match_retailer("walmart neighborhood market"), Some("Walmart"));
        assert_eq!(match_retailer("sams club gas"), Some("Sam's Club"));
        assert_eq!(match_retailer("SAM'S CLUB #55"), Some("Sam's Club"));
        assert_eq!(match_retailer("martwal"), None, "wal must precede mart");
        assert_eq!(match_retailer("Joe's Coffee"), None);
        assert_eq!(match_retailer(""), None);
    }

    #[test]
    fn end_to_end_counts_match_ground_truth() {
        let wf = workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(RetailerMapper::new());
        exec.register_updater(Counter::new());
        let mut gen = CheckinGenerator::new(42, 200, 1000.0);
        let events = gen.take(CHECKIN_STREAM, 3000);
        let expected = CheckinGenerator::expected_retailer_counts(&events);
        for ev in events {
            exec.push_external(CHECKIN_STREAM, ev);
        }
        exec.run_to_completion().unwrap();
        for (retailer, count) in &expected {
            let slate = exec.slate(COUNTER, &Key::from(retailer.as_str())).unwrap();
            assert_eq!(slate.counter(), *count, "retailer {retailer}");
        }
        // No spurious retailers.
        assert_eq!(exec.slates_of(COUNTER).len(), expected.len());
    }

    #[test]
    fn non_retail_checkins_emit_nothing() {
        use muppet_core::operator::VecEmitter;
        let mapper = RetailerMapper::new();
        let mut em = VecEmitter::new();
        let checkin = Json::obj([
            ("user", Json::str("u1")),
            ("venue", Json::obj([("name", Json::str("Central Park"))])),
        ]);
        let ev = Event::new(CHECKIN_STREAM, 1, Key::from("u1"), checkin.to_compact().into_bytes());
        mapper.map(&mut em, &ev);
        assert!(em.is_empty());
        // Malformed payloads are skipped, not fatal (Figure 3 logs errors).
        let bad = Event::new(CHECKIN_STREAM, 2, Key::from("u1"), b"not json".to_vec());
        mapper.map(&mut em, &bad);
        assert!(em.is_empty());
    }

    #[test]
    fn custom_names_allow_reuse() {
        let m = RetailerMapper::named("M-alt");
        assert_eq!(Mapper::name(&m), "M-alt");
        let c = Counter::named("U-alt");
        assert_eq!(Updater::name(&c), "U-alt");
    }
}
