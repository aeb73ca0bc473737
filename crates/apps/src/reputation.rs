//! Per-user reputation scores — Example 3.
//!
//! "It analyzes each incoming tweet to determine if the tweet affects the
//! score of any users, then changes those scores. ... if a user A retweets
//! or replies to a user B, then the score of B may change ... The output
//! is a real-time data structure of ⟨user, score⟩ pairs."
//!
//! Workflow: `S1 (tweets) → M1 → S2 → U1`, with U1's slates being the
//! live ⟨user, score⟩ table. The mapper fans one tweet out into score
//! deltas: the author earns activity points; a retweeted/replied-to user
//! earns engagement points weighted by the interaction kind. (The paper
//! notes B's delta "may depend on the score of A"; cross-slate reads are
//! impossible in MapUpdate — exactly why the paper keeps per-key slates —
//! so the weight is carried in the event instead.)

use bytes::Bytes;
use muppet_core::event::{Event, Key};
use muppet_core::json::{self, Field, Json};
use muppet_core::operator::{Emitter, Mapper, Updater};
use muppet_core::slate::Slate;
use muppet_core::workflow::Workflow;

/// External tweet stream.
pub const TWEET_STREAM: &str = "S1";
/// Internal stream of score deltas.
pub const DELTA_STREAM: &str = "S2";
/// The mapper's name.
pub const MAPPER: &str = "reputation-mapper";
/// The updater's name.
pub const SCORER: &str = "reputation-scorer";

/// Points for writing a tweet.
pub const TWEET_POINTS: i64 = 1;
/// Points for being retweeted.
pub const RETWEET_POINTS: i64 = 5;
/// Points for being replied to.
pub const REPLY_POINTS: i64 = 2;

/// The reputation workflow.
pub fn workflow() -> Workflow {
    let mut b = Workflow::builder("reputation");
    b.external_stream(TWEET_STREAM);
    b.mapper_publishing(MAPPER, &[TWEET_STREAM], &[DELTA_STREAM]);
    b.updater(SCORER, &[DELTA_STREAM]);
    b.build().expect("static workflow is valid")
}

/// M1: turn a tweet into score-delta events.
pub struct ReputationMapper {
    name: String,
}

impl ReputationMapper {
    /// Default-named mapper.
    pub fn new() -> Self {
        ReputationMapper { name: MAPPER.to_string() }
    }
}

impl Default for ReputationMapper {
    fn default() -> Self {
        Self::new()
    }
}

/// The three delta payloads M1 emits, as constants:
/// `Json::obj([("delta", points), ("reason", ..)]).to_compact()` byte for
/// byte (pinned by a test).
pub const TWEET_DELTA: &[u8] = br#"{"delta":1,"reason":"tweet"}"#;
/// The retweeted user's delta.
pub const RETWEET_DELTA: &[u8] = br#"{"delta":5,"reason":"retweeted"}"#;
/// The replied-to user's delta.
pub const REPLY_DELTA: &[u8] = br#"{"delta":2,"reason":"replied"}"#;

impl Mapper for ReputationMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, ctx: &mut dyn Emitter, event: &Event) {
        let Ok([user, retweet_of, reply_to]) =
            json::scan(&event.value, ["user", "retweet_of", "reply_to"])
        else {
            return;
        };
        let Some(author) = user.as_ref().and_then(Field::as_str) else { return };
        // The author's activity.
        ctx.publish_shared(DELTA_STREAM, Key::from(author), Bytes::from_static(TWEET_DELTA));
        // Engagement credit to the referenced user.
        for (target, delta) in [(retweet_of, RETWEET_DELTA), (reply_to, REPLY_DELTA)] {
            if let Some(target) = target.as_ref().and_then(Field::as_str) {
                ctx.publish_shared(DELTA_STREAM, Key::from(target), Bytes::from_static(delta));
            }
        }
    }
}

/// U1: accumulate score deltas per user. Slate JSON:
/// `{"score": i, "events": n}`.
pub struct ReputationScorer {
    name: String,
}

impl ReputationScorer {
    /// Default-named updater.
    pub fn new() -> Self {
        ReputationScorer { name: SCORER.to_string() }
    }

    /// Read a score out of a slate (for tests and harnesses).
    pub fn score_of(slate: &Slate) -> i64 {
        slate.as_json().and_then(|v| v.get("score").and_then(Json::as_i64)).unwrap_or(0)
    }
}

impl Default for ReputationScorer {
    fn default() -> Self {
        Self::new()
    }
}

impl Updater for ReputationScorer {
    fn name(&self) -> &str {
        &self.name
    }

    fn update(&self, _ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        let delta =
            json::scan(&event.value, ["delta"]).ok().and_then(|[d]| d?.as_i64()).unwrap_or(0);
        // Resident slate: mutate the parsed document in place; the bytes
        // materialize only at flush/read boundaries.
        let state =
            slate.obj_mut_or(|| Json::obj([("score", Json::num(0)), ("events", Json::num(0))]));
        let score = state.get("score").and_then(Json::as_i64).unwrap_or(0);
        let events = state.get("events").and_then(Json::as_u64).unwrap_or(0);
        state.set("score", Json::num((score + delta) as f64));
        state.set("events", Json::num((events + 1) as f64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::reference::ReferenceExecutor;

    fn tweet(ts: u64, author: &str, retweet_of: Option<&str>, reply_to: Option<&str>) -> Event {
        let mut fields =
            vec![("user".to_string(), Json::str(author)), ("text".to_string(), Json::str("hi"))];
        if let Some(t) = retweet_of {
            fields.push(("retweet_of".to_string(), Json::str(t)));
        }
        if let Some(t) = reply_to {
            fields.push(("reply_to".to_string(), Json::str(t)));
        }
        Event::new(TWEET_STREAM, ts, Key::from(author), Json::Obj(fields).to_compact().into_bytes())
    }

    #[test]
    fn scores_accumulate_per_user() {
        let wf = workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(ReputationMapper::new());
        exec.register_updater(ReputationScorer::new());
        // A tweets twice; B retweets A once; C replies to A once.
        exec.push_external(TWEET_STREAM, tweet(1, "A", None, None));
        exec.push_external(TWEET_STREAM, tweet(2, "A", None, None));
        exec.push_external(TWEET_STREAM, tweet(3, "B", Some("A"), None));
        exec.push_external(TWEET_STREAM, tweet(4, "C", None, Some("A")));
        exec.run_to_completion().unwrap();
        let score = |user: &str| {
            exec.slate(SCORER, &Key::from(user)).map(ReputationScorer::score_of).unwrap_or(0)
        };
        // A: 2 tweets (2) + retweeted (5) + replied (2) = 9.
        assert_eq!(score("A"), 2 * TWEET_POINTS + RETWEET_POINTS + REPLY_POINTS);
        assert_eq!(score("B"), TWEET_POINTS);
        assert_eq!(score("C"), TWEET_POINTS);
        assert_eq!(score("nobody"), 0);
    }

    #[test]
    fn real_time_table_matches_hand_count_on_generated_stream() {
        use muppet_workloads::tweets::TweetGenerator;
        let wf = workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(ReputationMapper::new());
        exec.register_updater(ReputationScorer::new());
        let mut gen = TweetGenerator::new(17, 30, 1000.0);
        let events = gen.take(TWEET_STREAM, 1000);
        // Hand-computed expectation.
        let mut expected: std::collections::BTreeMap<String, i64> = Default::default();
        for ev in &events {
            let v = Json::from_payload(&ev.value).unwrap();
            let author = v.get("user").unwrap().as_str().unwrap();
            *expected.entry(author.to_string()).or_default() += TWEET_POINTS;
            if let Some(t) = v.get("retweet_of").and_then(Json::as_str) {
                *expected.entry(t.to_string()).or_default() += RETWEET_POINTS;
            }
            if let Some(t) = v.get("reply_to").and_then(Json::as_str) {
                *expected.entry(t.to_string()).or_default() += REPLY_POINTS;
            }
        }
        for ev in events {
            exec.push_external(TWEET_STREAM, ev);
        }
        exec.run_to_completion().unwrap();
        let got: std::collections::BTreeMap<String, i64> = exec
            .slates_of(SCORER)
            .into_iter()
            .map(|(k, s)| (k.as_str().unwrap().to_string(), ReputationScorer::score_of(s)))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn malformed_tweets_are_skipped() {
        use muppet_core::operator::VecEmitter;
        let m = ReputationMapper::new();
        let mut em = VecEmitter::new();
        m.map(&mut em, &Event::new(TWEET_STREAM, 1, Key::from("x"), b"garbage".to_vec()));
        m.map(&mut em, &Event::new(TWEET_STREAM, 2, Key::from("x"), b"{}".to_vec()));
        // A valid tweet followed by garbage: the scanner validates the
        // whole payload, as the tree parser did.
        let prefix = br#"{"user":"a","retweet_of":"b"}garbage"#.to_vec();
        m.map(&mut em, &Event::new(TWEET_STREAM, 3, Key::from("x"), prefix));
        assert!(em.is_empty());
    }

    #[test]
    fn static_deltas_match_the_tree_serializer() {
        for (payload, points, reason) in [
            (TWEET_DELTA, TWEET_POINTS, "tweet"),
            (RETWEET_DELTA, RETWEET_POINTS, "retweeted"),
            (REPLY_DELTA, REPLY_POINTS, "replied"),
        ] {
            let tree =
                Json::obj([("delta", Json::num(points as f64)), ("reason", Json::str(reason))]);
            assert_eq!(payload, tree.to_compact().as_bytes(), "{reason}");
        }
    }
}
