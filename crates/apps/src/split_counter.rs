//! Hotspot relief by key splitting — §5 Example 6.
//!
//! "Counting Best Buy events is associative and commutative. Hence,
//! instead of using just a single updater U, we can use a set of updaters,
//! each of which counts just a subset of Best Buy events. ... we can modify
//! the map function to replace the single key 'Best Buy' with two keys
//! 'Best Buy1' and 'Best Buy2' ... Next, we modify the update function so
//! that it regularly emits the counts ... as new events under the key
//! 'Best Buy'. Finally, we write a new update function that receives the
//! events of key 'Best Buy' to determine the total counts."
//!
//! Workflow: `S1 (checkins) → M1 splitting-mapper → S2 → U1 partial-counter
//! → S3 → U2 total-counter`, parameterized by the split factor k.

use bytes::Bytes;
use muppet_core::sync::Mutex;

use muppet_core::event::{Event, Key};
use muppet_core::hash::FxHashMap;
use muppet_core::json::{self, Json};
use muppet_core::operator::{Emitter, Mapper, Updater};
use muppet_core::slate::{parse_decimal, Slate};
use muppet_core::workflow::Workflow;

use crate::retailer::match_retailer;

/// External checkin stream.
pub const CHECKIN_STREAM: &str = "S1";
/// Split-key stream.
pub const SPLIT_STREAM: &str = "S2";
/// Partial-count stream.
pub const PARTIAL_STREAM: &str = "S3";
/// Splitting mapper name.
pub const SPLIT_MAPPER: &str = "splitting-mapper";
/// Partial counter name.
pub const PARTIAL_COUNTER: &str = "partial-counter";
/// Total counter name.
pub const TOTAL_COUNTER: &str = "total-counter";

/// The split-counting workflow.
pub fn workflow() -> Workflow {
    let mut b = Workflow::builder("split-counter");
    b.external_stream(CHECKIN_STREAM);
    b.mapper_publishing(SPLIT_MAPPER, &[CHECKIN_STREAM], &[SPLIT_STREAM]);
    b.updater_publishing(PARTIAL_COUNTER, &[SPLIT_STREAM], &[PARTIAL_STREAM]);
    b.updater(TOTAL_COUNTER, &[PARTIAL_STREAM]);
    b.build().expect("static workflow is valid")
}

/// Compose the split key `"<retailer>#<i>"` of Example 6 ("Best Buy1",
/// "Best Buy2" in the paper's phrasing).
pub fn split_key(retailer: &str, shard: u64) -> Key {
    Key::from(format!("{retailer}#{shard}"))
}

/// Recover the base retailer from a split key.
pub fn base_of(split: &Key) -> Option<String> {
    let s = split.as_str()?;
    let (base, _) = s.rsplit_once('#')?;
    Some(base.to_string())
}

/// M1: like the Figure 3 retailer mapper, but spreads each retailer over
/// `k` sub-keys round-robin, "partitioning the set of events with key
/// 'Best Buy' into [k] subsets".
pub struct SplittingMapper {
    name: String,
    k: u64,
    /// Per-retailer round-robin cursors: Example 6 partitions *each*
    /// retailer's events into k subsets, so the cursor must be per base
    /// key, not global.
    rr: Mutex<FxHashMap<&'static str, u64>>,
}

impl SplittingMapper {
    /// A mapper splitting each retailer key `k` ways (`k = 1` reproduces
    /// the unsplit baseline).
    pub fn new(k: u64) -> Self {
        SplittingMapper {
            name: SPLIT_MAPPER.to_string(),
            k: k.max(1),
            rr: Mutex::new(FxHashMap::default()),
        }
    }
}

impl Mapper for SplittingMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, ctx: &mut dyn Emitter, event: &Event) {
        let Some(venue) = crate::retailer::RetailerMapper::venue_of(event) else { return };
        if let Some(retailer) = match_retailer(&venue) {
            let shard = {
                let mut cursors = self.rr.lock();
                let cursor = cursors.entry(retailer).or_insert(0);
                let shard = *cursor % self.k;
                *cursor += 1;
                shard
            };
            ctx.publish_shared(SPLIT_STREAM, split_key(retailer, shard), event.value.clone());
        }
    }
}

/// U1: count per split key; "regularly emits the counts ... as new events
/// under the [base] key" — every `emit_every` events it publishes the
/// accumulated delta and resets it. Slate JSON:
/// `{"count": total_for_shard, "unreported": pending_delta}`.
pub struct PartialCounter {
    name: String,
    emit_every: u64,
}

impl PartialCounter {
    /// Emit a partial-count delta every `emit_every` events (1 = per
    /// event, exact totals downstream at the cost of 1:1 event traffic).
    pub fn new(emit_every: u64) -> Self {
        PartialCounter { name: PARTIAL_COUNTER.to_string(), emit_every: emit_every.max(1) }
    }
}

impl Updater for PartialCounter {
    fn name(&self) -> &str {
        &self.name
    }

    fn update(&self, ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        // Resident slate: read and write the parsed document in place.
        let state =
            slate.obj_mut_or(|| Json::obj([("count", Json::num(0)), ("unreported", Json::num(0))]));
        let mut count = state.get("count").and_then(Json::as_u64).unwrap_or(0);
        let mut unreported = state.get("unreported").and_then(Json::as_u64).unwrap_or(0);
        count += 1;
        unreported += 1;
        if unreported >= self.emit_every {
            if let Some(base) = base_of(&event.key) {
                let payload = Json::obj([("delta", Json::num(unreported as f64))]).to_compact();
                ctx.publish(PARTIAL_STREAM, Key::from(base), payload.into_bytes());
            }
            unreported = 0;
        }
        state.set("count", Json::num(count as f64));
        state.set("unreported", Json::num(unreported as f64));
    }
}

/// U2: sum the partial deltas per base retailer key.
pub struct TotalCounter {
    name: String,
}

impl TotalCounter {
    /// Default-named updater.
    pub fn new() -> Self {
        TotalCounter { name: TOTAL_COUNTER.to_string() }
    }
}

impl Default for TotalCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl Updater for TotalCounter {
    fn name(&self) -> &str {
        &self.name
    }

    fn update(&self, _ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        let delta =
            json::scan(&event.value, ["delta"]).ok().and_then(|[d]| d?.as_u64()).unwrap_or(0);
        slate.incr_counter(delta);
    }
}

// ---------------------------------------------------------------------
// Engine-native hotspot relief: the combiner primitive.
//
// Example 6 above is the *manual* pattern — the application splits keys,
// emits partial counts, and re-aggregates with a second updater. With
// the engine's combiner contract the same relief needs none of that
// plumbing: the mapper emits unit counts, the counter declares its
// associative merge, and `EngineConfig::combine` /
// `EngineConfig::hot_split_threshold` handle pre-aggregation and
// dynamic key splitting below the application.
// ---------------------------------------------------------------------

/// Unit-count stream of the combined workflow.
pub const UNIT_STREAM: &str = "S2";
/// Unit-emitting mapper name (combined workflow).
pub const UNIT_MAPPER: &str = "unit-mapper";
/// Combining counter name (combined workflow).
pub const COMBINING_COUNTER: &str = "combining-counter";

/// The engine-native replacement for the whole Example 6 pipeline:
/// `S1 → M1 unit-mapper → S2 → U1 combining-counter`. One updater, no
/// shard keys, no partial streams — hotspot relief comes from the
/// engine, not the application.
pub fn combined_workflow() -> Workflow {
    let mut b = Workflow::builder("split-counter-combined");
    b.external_stream(CHECKIN_STREAM);
    b.mapper_publishing(UNIT_MAPPER, &[CHECKIN_STREAM], &[UNIT_STREAM]);
    b.updater(COMBINING_COUNTER, &[UNIT_STREAM]);
    b.build().expect("static workflow is valid")
}

/// M1 of the combined workflow: matches retailers like the Figure 3
/// mapper but emits the unit count `"1"` as the value, so downstream
/// values are combinable by decimal sum.
pub struct UnitMapper {
    name: String,
}

impl UnitMapper {
    /// Default-named unit mapper.
    pub fn new() -> Self {
        UnitMapper { name: UNIT_MAPPER.to_string() }
    }
}

impl Default for UnitMapper {
    fn default() -> Self {
        Self::new()
    }
}

impl Mapper for UnitMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, ctx: &mut dyn Emitter, event: &Event) {
        let Some(venue) = crate::retailer::RetailerMapper::venue_of(event) else { return };
        if let Some(retailer) = match_retailer(&venue) {
            ctx.publish_shared(UNIT_STREAM, Key::from(retailer), Bytes::from_static(b"1"));
        }
    }
}

/// U1 of the combined workflow: adds the event's decimal unit count to
/// the slate counter and declares the associative merge — folding
/// values by decimal sum then updating once is bit-identical to
/// updating per event, which is exactly the combiner contract. The
/// merge is total over slate byte images (decimal text), so the engine
/// may also split this updater's hot keys across subslates.
pub struct CombiningCounter {
    name: String,
}

impl CombiningCounter {
    /// Default-named combining counter.
    pub fn new() -> Self {
        CombiningCounter { name: COMBINING_COUNTER.to_string() }
    }

    /// A combining counter registered under a custom function name.
    pub fn named(name: impl Into<String>) -> Self {
        CombiningCounter { name: name.into() }
    }
}

impl Default for CombiningCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl Updater for CombiningCounter {
    fn name(&self) -> &str {
        &self.name
    }

    fn update(&self, _ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        slate.incr_counter(parse_decimal(&event.value).unwrap_or(0));
    }

    fn combine(&self, acc: &[u8], next: &[u8]) -> Option<Vec<u8>> {
        muppet_core::operator::combine_decimal_sum(acc, next)
    }

    fn combines(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::reference::ReferenceExecutor;
    use muppet_workloads::checkins::CheckinGenerator;

    type Counts = Vec<(String, u64)>;

    fn run(k: u64, emit_every: u64, n_events: usize) -> (Counts, Counts) {
        let wf = workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(SplittingMapper::new(k));
        exec.register_updater(PartialCounter::new(emit_every));
        exec.register_updater(TotalCounter::new());
        let mut gen = CheckinGenerator::new(77, 100, 1000.0).with_venue_skew(2.0);
        let events = gen.take(CHECKIN_STREAM, n_events);
        let expected: Vec<(String, u64)> =
            CheckinGenerator::expected_retailer_counts(&events).into_iter().collect();
        for ev in events {
            exec.push_external(CHECKIN_STREAM, ev);
        }
        exec.run_to_completion().unwrap();
        let totals: Vec<(String, u64)> = exec
            .slates_of(TOTAL_COUNTER)
            .into_iter()
            .map(|(key, slate)| (key.as_str().unwrap().to_string(), slate.counter()))
            .collect();
        (expected, totals)
    }

    #[test]
    fn split_totals_equal_unsplit_ground_truth_when_emitting_every_event() {
        for k in [1u64, 2, 4, 8] {
            let (expected, totals) = run(k, 1, 2000);
            assert_eq!(totals, expected, "k={k}");
        }
    }

    #[test]
    fn batched_emission_undercounts_by_at_most_k_times_batch() {
        let k = 4u64;
        let batch = 10u64;
        let (expected, totals) = run(k, batch, 2000);
        for (retailer, expect) in &expected {
            let got = totals.iter().find(|(r, _)| r == retailer).map(|(_, c)| *c).unwrap_or(0);
            assert!(got <= *expect, "never overcounts");
            assert!(
                expect - got < k * batch,
                "{retailer}: unreported residue bounded by k×batch: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn splitting_spreads_shard_keys() {
        let wf = workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(SplittingMapper::new(4));
        exec.register_updater(PartialCounter::new(1));
        exec.register_updater(TotalCounter::new());
        let mut gen = CheckinGenerator::new(3, 50, 1000.0).with_venue_skew(3.0);
        for ev in gen.take(CHECKIN_STREAM, 2000) {
            exec.push_external(CHECKIN_STREAM, ev);
        }
        exec.run_to_completion().unwrap();
        // The hottest retailer's events must be spread over 4 shard slates.
        let shard_counts: Vec<(String, u64)> = exec
            .slates_of(PARTIAL_COUNTER)
            .into_iter()
            .map(|(key, slate)| {
                let v = slate.as_json().unwrap();
                (key.as_str().unwrap().to_string(), v.get("count").unwrap().as_u64().unwrap())
            })
            .collect();
        let hottest_base = base_of(&Key::from(shard_counts[0].0.as_str())).unwrap();
        let shards: Vec<&(String, u64)> =
            shard_counts.iter().filter(|(k, _)| k.starts_with(&hottest_base)).collect();
        assert!(shards.len() > 1, "hot key split across shards: {shard_counts:?}");
        let max = shards.iter().map(|(_, c)| *c).max().unwrap();
        let min = shards.iter().map(|(_, c)| *c).min().unwrap();
        assert!(max - min <= 1, "round-robin splits evenly: {shards:?}");
    }

    #[test]
    fn combined_workflow_counts_match_ground_truth() {
        let wf = combined_workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(UnitMapper::new());
        exec.register_updater(CombiningCounter::new());
        let mut gen = CheckinGenerator::new(77, 100, 1000.0).with_venue_skew(2.0);
        let events = gen.take(CHECKIN_STREAM, 2000);
        let expected: Counts =
            CheckinGenerator::expected_retailer_counts(&events).into_iter().collect();
        for ev in events {
            exec.push_external(CHECKIN_STREAM, ev);
        }
        exec.run_to_completion().unwrap();
        let totals: Counts = exec
            .slates_of(COMBINING_COUNTER)
            .into_iter()
            .map(|(key, slate)| (key.as_str().unwrap().to_string(), slate.counter()))
            .collect();
        assert_eq!(totals, expected, "one combining updater replaces the Example 6 pipeline");
    }

    #[test]
    fn combining_counter_fold_is_update_equivalent() {
        // The contract the engine relies on: combine-then-update-once
        // leaves the slate bit-identical to updating per event.
        use muppet_core::event::Event;
        use muppet_core::operator::VecEmitter;
        use muppet_core::slate::Slate;
        let u = CombiningCounter::new();
        let values: Vec<&[u8]> = vec![b"1", b"41", b"0", b"7"];
        let mut per_event = Slate::default();
        let mut emitter = VecEmitter::new();
        for v in &values {
            let ev = Event::new(UNIT_STREAM, 1, Key::from("Best Buy"), v.to_vec());
            u.update(&mut emitter, &ev, &mut per_event);
        }
        let mut folded_value = values[0].to_vec();
        for v in &values[1..] {
            folded_value = u.combine(&folded_value, v).expect("decimal sum is total");
        }
        let mut folded = Slate::default();
        let ev = Event::new(UNIT_STREAM, 1, Key::from("Best Buy"), folded_value);
        u.update(&mut emitter, &ev, &mut folded);
        assert_eq!(per_event.bytes(), folded.bytes());
        assert_eq!(per_event.counter(), 49);
    }

    #[test]
    fn split_key_roundtrip() {
        let k = split_key("Best Buy", 3);
        assert_eq!(k.as_str(), Some("Best Buy#3"));
        assert_eq!(base_of(&k), Some("Best Buy".to_string()));
        assert_eq!(base_of(&Key::from("nohash")), None);
    }
}
