//! A synthetic Twitter-Firehose stand-in.
//!
//! Produces tweet events shaped like the ones the paper's applications
//! consume: JSON payloads with an author, text, topic mentions, optional
//! retweet/reply references, and optional URLs. Author popularity follows a
//! Zipf distribution (§5's skew); topic mix is configurable and supports
//! *planted hot-topic bursts* so the hot-topics experiment (Figure 1(c))
//! has a known ground truth.

use muppet_core::event::{Bytes, Event, Key, StreamId};
use muppet_core::json::{write_decimal, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::arrivals::ArrivalProcess;
use crate::zipf::Zipf;

/// Default topic vocabulary.
pub const DEFAULT_TOPICS: &[&str] = &[
    "sports", "politics", "music", "movies", "tech", "food", "travel", "fashion", "finance",
    "weather",
];

/// A planted burst: between `start_us` and `end_us`, `topic` is mentioned
/// with `boost`× its usual probability (renormalized).
#[derive(Clone, Debug)]
pub struct PlantedBurst {
    /// Topic to make hot.
    pub topic: String,
    /// Burst start (µs).
    pub start_us: u64,
    /// Burst end (µs).
    pub end_us: u64,
    /// Probability multiplier.
    pub boost: f64,
}

/// Synthetic tweet stream generator.
#[derive(Debug)]
pub struct TweetGenerator {
    rng: StdRng,
    users: Zipf,
    topics: Vec<String>,
    topic_dist: Zipf,
    arrivals: ArrivalProcess,
    now_us: u64,
    bursts: Vec<PlantedBurst>,
    /// Each topic as the body of a JSON string (escaped, unquoted):
    /// `topics` in order, then one per burst.
    escaped: Vec<String>,
    retweet_prob: f64,
    url_prob: f64,
    seq: u64,
    /// The id of the stream last generated into, shared by its events.
    stream: Option<StreamId>,
    /// The tweet being written; its bytes are copied out once.
    buf: Vec<u8>,
}

/// `topic` as the body of a JSON string: the serializer's escaping, unquoted.
fn escaped(topic: &str) -> String {
    let quoted = Json::str(topic).to_compact();
    quoted[1..quoted.len() - 1].to_string()
}

impl TweetGenerator {
    /// A generator over `n_users` Zipf(1.05)-popular users at `rate`
    /// events/sec, deterministic for a given `seed`.
    pub fn new(seed: u64, n_users: usize, rate_per_sec: f64) -> Self {
        TweetGenerator {
            rng: StdRng::seed_from_u64(seed),
            users: Zipf::new(n_users.max(1), 1.05),
            topics: DEFAULT_TOPICS.iter().map(|s| s.to_string()).collect(),
            topic_dist: Zipf::new(DEFAULT_TOPICS.len(), 0.8),
            arrivals: ArrivalProcess::Poisson { events_per_sec: rate_per_sec },
            now_us: 0,
            bursts: Vec::new(),
            escaped: DEFAULT_TOPICS.iter().map(|s| escaped(s)).collect(),
            retweet_prob: 0.25,
            url_prob: 0.15,
            seq: 0,
            stream: None,
            buf: Vec::new(),
        }
    }

    /// Plant a hot-topic burst.
    pub fn with_burst(mut self, burst: PlantedBurst) -> Self {
        self.escaped.push(escaped(&burst.topic));
        self.bursts.push(burst);
        self
    }

    /// Start the virtual clock at `us`.
    pub fn starting_at(mut self, us: u64) -> Self {
        self.now_us = us;
        self
    }

    /// The topic vocabulary.
    pub fn topics(&self) -> &[String] {
        &self.topics
    }

    /// The index into `escaped` of the next tweet's topic.
    fn pick_topic(&mut self) -> usize {
        // Planted bursts first: active burst wins a boosted coin flip.
        for (i, burst) in self.bursts.iter().enumerate() {
            if (burst.start_us..burst.end_us).contains(&self.now_us) {
                let base = 1.0 / self.topics.len() as f64;
                let p = (base * burst.boost).min(0.95);
                if self.rng.gen_bool(p) {
                    return self.topics.len() + i;
                }
            }
        }
        self.topic_dist.sample(&mut self.rng)
    }

    /// Generate the next tweet event. Key = author user id; value = the
    /// tweet as compact JSON — `{"id","user","text","topics"}`, then
    /// `retweet_of` or `reply_to` and `urls` when drawn — written straight
    /// into one buffer, byte for byte what `Json::to_compact` gives the
    /// same object.
    pub fn next_event(&mut self, stream: &str) -> Event {
        let user_rank = self.users.sample(&mut self.rng);
        let topic = self.pick_topic();
        let topic = self.escaped[topic].as_str();
        self.seq += 1;
        let buf = &mut self.buf;
        buf.clear();
        buf.extend_from_slice(br#"{"id":"#);
        write_decimal(buf, self.seq);
        buf.extend_from_slice(br#","user":""#);
        let user_at = buf.len();
        buf.extend_from_slice(b"user-");
        write_decimal(buf, user_rank as u64);
        let user = user_at..buf.len();
        buf.extend_from_slice(br#"","text":"synthetic tweet #"#);
        write_decimal(buf, self.seq);
        for part in [" about ", topic, " #", topic, r#"","topics":[""#, topic, r#""]"#] {
            buf.extend_from_slice(part.as_bytes());
        }
        if self.rng.gen_bool(self.retweet_prob) {
            let target = self.users.sample(&mut self.rng);
            let kind = if self.rng.gen_bool(0.5) { "retweet_of" } else { "reply_to" };
            for part in [",\"", kind, "\":\"user-"] {
                buf.extend_from_slice(part.as_bytes());
            }
            write_decimal(buf, target as u64);
            buf.push(b'"');
        }
        if self.rng.gen_bool(self.url_prob) {
            buf.extend_from_slice(br#","urls":["http://example.com/page"#);
            write_decimal(buf, self.rng.gen_range(0..50));
            buf.extend_from_slice(br#""]"#);
        }
        buf.push(b'}');
        let (key, value) = (Key::from(&buf[user]), Bytes::copy_from_slice(buf));
        let ts = self.now_us;
        self.now_us += self.arrivals.next_gap_us(self.now_us, &mut self.rng).max(1);
        let stream = match &self.stream {
            Some(id) if id.as_str() == stream => id.clone(),
            _ => self.stream.insert(StreamId::from(stream)).clone(),
        };
        Event::new(stream, ts, key, value)
    }

    /// Generate `n` events.
    pub fn take(&mut self, stream: &str, n: usize) -> Vec<Event> {
        (0..n).map(|_| self.next_event(stream)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tweet as `next_event` once built it — a `Json` tree, serialized —
    /// drawing from `gen`'s RNG in the same order.
    fn tree_tweet(gen: &mut TweetGenerator, stream: &str) -> Event {
        let user_rank = gen.users.sample(&mut gen.rng);
        let user = format!("user-{user_rank}");
        let topic = tree_topic(gen);
        gen.seq += 1;
        let mut fields = vec![
            ("id".to_string(), Json::num(gen.seq as f64)),
            ("user".to_string(), Json::str(user.clone())),
            (
                "text".to_string(),
                Json::str(format!("synthetic tweet #{} about {topic} #{topic}", gen.seq)),
            ),
            ("topics".to_string(), Json::arr([Json::str(topic)])),
        ];
        if gen.rng.gen_bool(gen.retweet_prob) {
            let target = format!("user-{}", gen.users.sample(&mut gen.rng));
            let kind = if gen.rng.gen_bool(0.5) { "retweet_of" } else { "reply_to" };
            fields.push((kind.to_string(), Json::str(target)));
        }
        if gen.rng.gen_bool(gen.url_prob) {
            let url = format!("http://example.com/page{}", gen.rng.gen_range(0..50));
            fields.push(("urls".to_string(), Json::arr([Json::str(url)])));
        }
        let value = Json::Obj(fields).to_compact().into_bytes();
        let ts = gen.now_us;
        gen.now_us += gen.arrivals.next_gap_us(gen.now_us, &mut gen.rng).max(1);
        Event::new(stream, ts, Key::from(user), value)
    }

    fn tree_topic(gen: &mut TweetGenerator) -> String {
        for burst in &gen.bursts {
            if (burst.start_us..burst.end_us).contains(&gen.now_us) {
                let base = 1.0 / gen.topics.len() as f64;
                let p = (base * burst.boost).min(0.95);
                if gen.rng.gen_bool(p) {
                    return burst.topic.clone();
                }
            }
        }
        gen.topics[gen.topic_dist.sample(&mut gen.rng)].clone()
    }

    #[test]
    fn written_tweets_are_the_json_tree_byte_for_byte() {
        for seed in [1, 2, 3] {
            for bursting in [false, true] {
                let make = || {
                    let gen = TweetGenerator::new(seed, 5_000, 10_000.0);
                    if !bursting {
                        return gen;
                    }
                    // A topic the serializer must escape, hot for the first
                    // half of the run.
                    gen.with_burst(PlantedBurst {
                        topic: "quake \"Ü\"\n\\ \u{1}".into(),
                        start_us: 0,
                        end_us: 1_000_000,
                        boost: 8.0,
                    })
                };
                let (mut written, mut tree) = (make(), make());
                for i in 0..20_000 {
                    let (a, b) = (written.next_event("S1"), tree_tweet(&mut tree, "S1"));
                    assert_eq!(
                        String::from_utf8_lossy(&a.value),
                        String::from_utf8_lossy(&b.value),
                        "seed {seed}, burst {bursting}, tweet {i}"
                    );
                    assert_eq!(a, b, "seed {seed}, burst {bursting}, tweet {i}");
                }
            }
        }
    }

    #[test]
    fn tweets_are_valid_json_with_required_fields() {
        let mut gen = TweetGenerator::new(42, 100, 1000.0);
        for ev in gen.take("S1", 50) {
            let v = Json::from_payload(&ev.value).unwrap();
            assert!(v.get("user").is_some());
            assert!(v.get("text").is_some());
            let topics = v.get("topics").unwrap().as_arr().unwrap();
            assert_eq!(topics.len(), 1);
            assert_eq!(ev.key.as_str().unwrap(), v.get("user").unwrap().as_str().unwrap());
        }
    }

    #[test]
    fn timestamps_strictly_increase() {
        let mut gen = TweetGenerator::new(1, 10, 5000.0);
        let events = gen.take("S1", 200);
        for w in events.windows(2) {
            assert!(w[1].ts > w[0].ts);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a: Vec<_> = TweetGenerator::new(7, 50, 100.0).take("S1", 30);
        let b: Vec<_> = TweetGenerator::new(7, 50, 100.0).take("S1", 30);
        assert_eq!(a, b);
        let c: Vec<_> = TweetGenerator::new(8, 50, 100.0).take("S1", 30);
        assert_ne!(a, c);
    }

    #[test]
    fn user_popularity_is_skewed() {
        let mut gen = TweetGenerator::new(3, 1000, 1000.0);
        let mut counts = std::collections::HashMap::new();
        for ev in gen.take("S1", 20_000) {
            *counts.entry(ev.key.as_str().unwrap().to_string()).or_insert(0u32) += 1;
        }
        let top = counts.values().max().copied().unwrap();
        let mean = 20_000 / counts.len() as u32;
        assert!(top > mean * 5, "top user should dominate: top={top} mean={mean}");
    }

    #[test]
    fn planted_burst_dominates_its_window() {
        let mut gen = TweetGenerator::new(5, 100, 10_000.0).with_burst(PlantedBurst {
            topic: "earthquake".into(),
            start_us: 0,
            end_us: 500_000,
            boost: 8.0,
        });
        let mut in_window = 0;
        let mut hits = 0;
        for ev in gen.take("S1", 5000) {
            let v = Json::from_payload(&ev.value).unwrap();
            let topic = v.get("topics").unwrap().at(0).unwrap().as_str().unwrap().to_string();
            if ev.ts < 500_000 {
                in_window += 1;
                if topic == "earthquake" {
                    hits += 1;
                }
            } else {
                assert_ne!(topic, "earthquake", "burst topic only appears in its window");
            }
        }
        assert!(in_window > 0);
        assert!(
            hits as f64 / in_window as f64 > 0.4,
            "boosted topic should dominate: {hits}/{in_window}"
        );
    }
}
