//! Hot-topic detection — Example 2 / Example 5 / Figure 1(c).
//!
//! Workflow: `S1 (tweets) → M1 → S2 → U1 → S3 → U2 → S4 (hot topics)`.
//!
//! * **M1** classifies each tweet into topics; for each topic `v` at
//!   minute-of-day `m` it publishes an event with key `"v m"` to S2.
//! * **U1** counts events per `⟨topic, minute⟩` key. The paper's U1
//!   publishes the count "after a minute"; a timer has no place in a
//!   deterministic event model, so this port publishes the *running* count
//!   with each event — the final event of a minute carries the full count,
//!   and U2's threshold test is monotone, so hot minutes are detected
//!   identically (just incrementally). The slate resets when the key
//!   recurs on a later day.
//! * **U2** keeps, per `⟨topic, minute⟩` key, the running average count of
//!   that minute across previous days (`total_count` and `days` in the
//!   paper, Example 5). When `count / avg_count` exceeds the threshold it
//!   publishes the key to S4, at most once per day.

use bytes::Bytes;
use muppet_core::event::{Event, Key};
use muppet_core::json::{self, Field, Json};
use muppet_core::operator::{Emitter, Mapper, Updater};
use muppet_core::slate::Slate;
use muppet_core::time::{day_index, minute_of_day};
use muppet_core::workflow::Workflow;

/// External tweet stream.
pub const TWEET_STREAM: &str = "S1";
/// M1 → U1 stream of ⟨topic minute⟩ mentions.
pub const TOPIC_MINUTE_STREAM: &str = "S2";
/// U1 → U2 stream of ⟨topic minute, count⟩.
pub const COUNT_STREAM: &str = "S3";
/// Output stream of hot ⟨topic, minute⟩ pairs.
pub const HOT_STREAM: &str = "S4";
/// M1's name.
pub const TOPIC_MAPPER: &str = "topic-mapper";
/// U1's name.
pub const MINUTE_COUNTER: &str = "minute-counter";
/// U2's name.
pub const HOT_DETECTOR: &str = "hot-detector";

/// Figure 1(c): the three-stage pipeline.
pub fn workflow() -> Workflow {
    let mut b = Workflow::builder("hot-topics");
    b.external_stream(TWEET_STREAM);
    b.mapper_publishing(TOPIC_MAPPER, &[TWEET_STREAM], &[TOPIC_MINUTE_STREAM]);
    b.updater_publishing(MINUTE_COUNTER, &[TOPIC_MINUTE_STREAM], &[COUNT_STREAM]);
    b.updater_publishing(HOT_DETECTOR, &[COUNT_STREAM], &[HOT_STREAM]);
    b.build().expect("static workflow is valid")
}

/// Compose the `"<topic> <minute>"` key of Example 5.
pub fn topic_minute_key(topic: &str, minute: u32) -> Key {
    Key::from(format!("{topic} {minute}"))
}

/// M1: classify tweets into topics, emit per ⟨topic, minute⟩.
pub struct TopicMapper {
    name: String,
}

impl TopicMapper {
    /// Default-named mapper.
    pub fn new() -> Self {
        TopicMapper { name: TOPIC_MAPPER.to_string() }
    }
}

impl Default for TopicMapper {
    fn default() -> Self {
        Self::new()
    }
}

impl Mapper for TopicMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, ctx: &mut dyn Emitter, event: &Event) {
        let Ok([Some(Field::Arr(topics))]) = json::scan(&event.value, ["topics"]) else { return };
        let m = minute_of_day(event.ts);
        // Carry the event ts in the payload so downstream slates can
        // detect day rollover.
        let payload = Bytes::from(Json::obj([("ts", Json::num(event.ts as f64))]).to_compact());
        topics.items(|topic| {
            if let Some(topic) = topic.as_str() {
                ctx.publish_shared(
                    TOPIC_MINUTE_STREAM,
                    topic_minute_key(topic, m),
                    payload.clone(),
                );
            }
        });
    }
}

/// U1: per ⟨topic, minute⟩ running count within the current day.
pub struct MinuteCounter {
    name: String,
}

impl MinuteCounter {
    /// Default-named updater.
    pub fn new() -> Self {
        MinuteCounter { name: MINUTE_COUNTER.to_string() }
    }
}

impl Default for MinuteCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl Updater for MinuteCounter {
    fn name(&self) -> &str {
        &self.name
    }

    fn update(&self, ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        let ts =
            json::scan(&event.value, ["ts"]).ok().and_then(|[ts]| ts?.as_u64()).unwrap_or(event.ts);
        let day = day_index(ts);
        // Resident slate: parsed once per cache fault, mutated in place,
        // serialized only at byte boundaries (flush/handoff/HTTP).
        let state = slate
            .obj_mut_or(|| Json::obj([("count", Json::num(0)), ("day", Json::num(day as f64))]));
        let mut count = state.get("count").and_then(Json::as_u64).unwrap_or(0);
        let slate_day = state.get("day").and_then(Json::as_u64).unwrap_or(day);
        if slate_day != day {
            // Same minute key on a new day: fresh window (Example 5 counts
            // "the number of tweets per topic" per minute of *each* day).
            count = 0;
        }
        count += 1;
        state.set("count", Json::num(count as f64));
        state.set("day", Json::num(day as f64));
        // Publish the running count (see module docs for why not a timer).
        let out = Json::obj([("count", Json::num(count as f64)), ("ts", Json::num(ts as f64))]);
        ctx.publish(COUNT_STREAM, event.key.clone(), out.to_compact().into_bytes());
    }
}

/// U2: compare today's count against the historical per-day average for
/// this ⟨topic, minute⟩; emit to S4 when `count / avg > threshold`.
pub struct HotDetector {
    name: String,
    threshold: f64,
}

impl HotDetector {
    /// Detector with the given hotness threshold (Example 5's
    /// "pre-specified threshold").
    pub fn new(threshold: f64) -> Self {
        HotDetector { name: HOT_DETECTOR.to_string(), threshold }
    }
}

impl Updater for HotDetector {
    fn name(&self) -> &str {
        &self.name
    }

    fn update(&self, ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        let Ok([count, ts]) = json::scan(&event.value, ["count", "ts"]) else { return };
        let count = count.as_ref().and_then(Field::as_u64).unwrap_or(0);
        let ts = ts.as_ref().and_then(Field::as_u64).unwrap_or(event.ts);
        let day = day_index(ts);

        // Slate: Example 5's two summaries (total_count, days) plus the
        // bookkeeping to fold a finished day into them. Resident: parsed
        // at most once, mutated in place below.
        let state = slate.obj_mut_or(|| {
            Json::obj([
                ("total_count", Json::num(0)),
                ("days", Json::num(0)),
                ("last_day", Json::num(day as f64)),
                ("today_count", Json::num(0)),
                ("emitted_day", Json::Null),
            ])
        });
        let mut total = state.get("total_count").and_then(Json::as_u64).unwrap_or(0);
        let mut days = state.get("days").and_then(Json::as_u64).unwrap_or(0);
        let mut last_day = state.get("last_day").and_then(Json::as_u64).unwrap_or(day);
        let mut today_count = state.get("today_count").and_then(Json::as_u64).unwrap_or(0);
        let mut emitted_day = state.get("emitted_day").and_then(Json::as_u64);

        if day != last_day {
            // The previous day's final running count becomes history.
            total += today_count;
            days += 1;
            today_count = 0;
            last_day = day;
        }
        today_count = today_count.max(count);

        // avg_count_v_m per Example 5.
        if days > 0 {
            let avg = total as f64 / days as f64;
            if avg > 0.0 && (count as f64 / avg) > self.threshold && emitted_day != Some(day) {
                // "U2 publishes an event with key v m to a new stream S4,
                // indicating that topic v is hot in the minute m."
                let out = Json::obj([("count", Json::num(count as f64)), ("avg", Json::num(avg))]);
                ctx.publish(HOT_STREAM, event.key.clone(), out.to_compact().into_bytes());
                emitted_day = Some(day);
            }
        }

        state.set("total_count", Json::num(total as f64));
        state.set("days", Json::num(days as f64));
        state.set("last_day", Json::num(last_day as f64));
        state.set("today_count", Json::num(today_count as f64));
        state.set("emitted_day", emitted_day.map(|d| Json::num(d as f64)).unwrap_or(Json::Null));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::reference::ReferenceExecutor;
    use muppet_core::time::{MICROS_PER_DAY, MICROS_PER_MIN};

    fn tweet(ts: u64, topic: &str) -> Event {
        let value = Json::obj([
            ("user", Json::str("u1")),
            ("text", Json::str(format!("about {topic}"))),
            ("topics", Json::arr([Json::str(topic)])),
        ]);
        Event::new(TWEET_STREAM, ts, Key::from("u1"), value.to_compact().into_bytes())
    }

    fn executor(wf: &Workflow, threshold: f64) -> ReferenceExecutor<'_> {
        let mut exec = ReferenceExecutor::new(wf);
        exec.record_stream(HOT_STREAM);
        exec.register_mapper(TopicMapper::new());
        exec.register_updater(MinuteCounter::new());
        exec.register_updater(HotDetector::new(threshold));
        exec
    }

    #[test]
    fn mapper_keys_are_topic_space_minute() {
        use muppet_core::operator::VecEmitter;
        let m = TopicMapper::new();
        let mut em = VecEmitter::new();
        m.map(&mut em, &tweet(14 * MICROS_PER_MIN + 30, "sports"));
        let recs = em.take();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].key, Key::from("sports 14"), "Example 5: key = v m");
    }

    #[test]
    fn minute_counter_counts_per_topic_minute() {
        let wf = workflow();
        let mut exec = executor(&wf, 1e18); // threshold never trips here
                                            // 3 sports tweets in minute 5, 2 in minute 6, 1 music in minute 5.
        for i in 0..3 {
            exec.push_external(TWEET_STREAM, tweet(5 * MICROS_PER_MIN + i, "sports"));
        }
        for i in 0..2 {
            exec.push_external(TWEET_STREAM, tweet(6 * MICROS_PER_MIN + i, "sports"));
        }
        exec.push_external(TWEET_STREAM, tweet(5 * MICROS_PER_MIN + 9, "music"));
        exec.run_to_completion().unwrap();
        let count = |key: Key| -> u64 {
            exec.slate(MINUTE_COUNTER, &key)
                .and_then(Slate::as_json)
                .and_then(|v| v.get("count").and_then(Json::as_u64))
                .unwrap_or(0)
        };
        assert_eq!(count(topic_minute_key("sports", 5)), 3);
        assert_eq!(count(topic_minute_key("sports", 6)), 2);
        assert_eq!(count(topic_minute_key("music", 5)), 1);
        assert!(exec.recorded(HOT_STREAM).is_empty(), "nothing hot at absurd threshold");
    }

    #[test]
    fn hot_topic_fires_when_count_exceeds_historical_average() {
        let wf = workflow();
        let mut exec = executor(&wf, 3.0);
        // Day 0, minute 10: baseline of 2 sports tweets.
        for i in 0..2 {
            exec.push_external(TWEET_STREAM, tweet(10 * MICROS_PER_MIN + i, "sports"));
        }
        // Day 1, minute 10: 10 sports tweets — 5× the average of 2.
        for i in 0..10 {
            exec.push_external(
                TWEET_STREAM,
                tweet(MICROS_PER_DAY + 10 * MICROS_PER_MIN + i, "sports"),
            );
        }
        exec.run_to_completion().unwrap();
        let hot = exec.recorded(HOT_STREAM);
        assert_eq!(hot.len(), 1, "exactly one hot emission per key per day");
        assert_eq!(hot[0].key, topic_minute_key("sports", 10));
        let payload = Json::from_payload(&hot[0].value).unwrap();
        assert!(payload.get("count").and_then(Json::as_u64).unwrap() > 6);
    }

    #[test]
    fn no_hot_emission_without_history() {
        // Day 0 only: no average exists yet, so nothing can be "hot".
        let wf = workflow();
        let mut exec = executor(&wf, 1.0);
        for i in 0..50 {
            exec.push_external(TWEET_STREAM, tweet(3 * MICROS_PER_MIN + i, "tech"));
        }
        exec.run_to_completion().unwrap();
        assert!(exec.recorded(HOT_STREAM).is_empty());
    }

    #[test]
    fn steady_traffic_is_not_hot() {
        let wf = workflow();
        let mut exec = executor(&wf, 3.0);
        // Three days of ~identical traffic at minute 7.
        for day in 0..3u64 {
            for i in 0..5 {
                exec.push_external(
                    TWEET_STREAM,
                    tweet(day * MICROS_PER_DAY + 7 * MICROS_PER_MIN + i, "food"),
                );
            }
        }
        exec.run_to_completion().unwrap();
        assert!(
            exec.recorded(HOT_STREAM).is_empty(),
            "5 vs avg 5 is a ratio of 1.0 < threshold 3.0"
        );
    }

    #[test]
    fn minute_counter_resets_across_days() {
        let wf = workflow();
        let mut exec = executor(&wf, 1e18);
        exec.push_external(TWEET_STREAM, tweet(MICROS_PER_MIN, "music"));
        exec.push_external(TWEET_STREAM, tweet(MICROS_PER_DAY + MICROS_PER_MIN, "music"));
        exec.run_to_completion().unwrap();
        let slate = exec.slate(MINUTE_COUNTER, &topic_minute_key("music", 1)).unwrap();
        let v = slate.as_json().unwrap();
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(1), "fresh count on day 1");
        assert_eq!(v.get("day").and_then(Json::as_u64), Some(1));
    }
}
