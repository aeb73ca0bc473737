//! Top-K URLs being passed around on Twitter (§2's motivating list).
//!
//! Workflow: `S1 (tweets) → M1 url-extractor → S2 → U1 url-counter → S3 →
//! U2 top-k`. U1 maintains a per-URL count and republishes it; U2 folds
//! every count into a single "leaderboard" slate (one key — deliberately a
//! hotspot, which is why Example 6's splitting exists; see
//! [`crate::split_counter`]).

use muppet_core::event::{Event, Key};
use muppet_core::json::{self, Field, Json};
use muppet_core::operator::{Emitter, Mapper, Updater};
use muppet_core::slate::Slate;
use muppet_core::workflow::Workflow;

/// External tweet stream.
pub const TWEET_STREAM: &str = "S1";
/// URL mention stream.
pub const URL_STREAM: &str = "S2";
/// Per-URL count stream.
pub const COUNT_STREAM: &str = "S3";
/// Extractor name.
pub const URL_MAPPER: &str = "url-extractor";
/// Counter name.
pub const URL_COUNTER: &str = "url-counter";
/// Leaderboard updater name.
pub const TOP_K: &str = "top-k";
/// The single leaderboard key.
pub const LEADERBOARD_KEY: &str = "leaderboard";

/// The top-K workflow.
pub fn workflow() -> Workflow {
    let mut b = Workflow::builder("top-urls");
    b.external_stream(TWEET_STREAM);
    b.mapper_publishing(URL_MAPPER, &[TWEET_STREAM], &[URL_STREAM]);
    b.updater_publishing(URL_COUNTER, &[URL_STREAM], &[COUNT_STREAM]);
    b.updater(TOP_K, &[COUNT_STREAM]);
    b.build().expect("static workflow is valid")
}

/// M1: emit one event per URL in the tweet.
pub struct UrlMapper {
    name: String,
}

impl UrlMapper {
    /// Default-named extractor.
    pub fn new() -> Self {
        UrlMapper { name: URL_MAPPER.to_string() }
    }
}

impl Default for UrlMapper {
    fn default() -> Self {
        Self::new()
    }
}

impl Mapper for UrlMapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn map(&self, ctx: &mut dyn Emitter, event: &Event) {
        let Ok([Some(Field::Arr(urls))]) = json::scan(&event.value, ["urls"]) else { return };
        urls.items(|url| {
            if let Some(url) = url.as_str() {
                ctx.publish(URL_STREAM, Key::from(url), Vec::new());
            }
        });
    }
}

/// U1: count mentions per URL; republish `(url, count)` downstream.
pub struct UrlCounter {
    name: String,
}

impl UrlCounter {
    /// Default-named counter.
    pub fn new() -> Self {
        UrlCounter { name: URL_COUNTER.to_string() }
    }
}

impl Default for UrlCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl Updater for UrlCounter {
    fn name(&self) -> &str {
        &self.name
    }

    fn update(&self, ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        let count = slate.incr_counter(1);
        let url = event.key.as_str().unwrap_or("");
        let payload =
            Json::obj([("url", Json::str(url)), ("count", Json::num(count as f64))]).to_compact();
        ctx.publish(COUNT_STREAM, Key::from(LEADERBOARD_KEY), payload.into_bytes());
    }
}

/// U2: fold `(url, count)` updates into a top-K leaderboard slate:
/// `{"k": K, "top": [{"url": ..., "count": ...}, ...]}` sorted descending.
pub struct TopKUpdater {
    name: String,
    k: usize,
}

impl TopKUpdater {
    /// Keep the top `k` URLs ("top-ten" in the paper).
    pub fn new(k: usize) -> Self {
        TopKUpdater { name: TOP_K.to_string(), k: k.max(1) }
    }

    /// Parse a leaderboard out of a slate (for tests/harnesses).
    pub fn leaderboard(slate: &Slate) -> Vec<(String, u64)> {
        slate
            .as_json()
            .and_then(|v| {
                v.get("top").and_then(Json::as_arr).map(|items| {
                    items
                        .iter()
                        .filter_map(|e| {
                            Some((e.get("url")?.as_str()?.to_string(), e.get("count")?.as_u64()?))
                        })
                        .collect()
                })
            })
            .unwrap_or_default()
    }
}

impl Updater for TopKUpdater {
    fn name(&self) -> &str {
        &self.name
    }

    fn update(&self, _ctx: &mut dyn Emitter, event: &Event, slate: &mut Slate) {
        let Ok([url, count]) = json::scan(&event.value, ["url", "count"]) else { return };
        let (Some(url), Some(count)) =
            (url.as_ref().and_then(Field::as_str), count.as_ref().and_then(Field::as_u64))
        else {
            return;
        };
        // Read the board out of the resident document (parsed at most
        // once per cache fault — no byte-level reparse per event).
        let mut board: Vec<(String, u64)> = slate
            .ensure_json()
            .and_then(|doc| doc.get("top").and_then(Json::as_arr))
            .map(|items| {
                items
                    .iter()
                    .filter_map(|e| {
                        Some((e.get("url")?.as_str()?.to_string(), e.get("count")?.as_u64()?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        match board.iter_mut().find(|(u, _)| u == url) {
            Some(entry) => entry.1 = entry.1.max(count),
            None => board.push((url.to_string(), count)),
        }
        // Sort by count desc, then URL for determinism; truncate to K.
        board.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        board.truncate(self.k);
        let top = Json::arr(board.iter().map(|(u, c)| {
            Json::obj([("url", Json::str(u.clone())), ("count", Json::num(*c as f64))])
        }));
        // Install the rebuilt document without an intermediate
        // serialization.
        slate.set_json(Json::obj([("k", Json::num(self.k as f64)), ("top", top)]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::reference::ReferenceExecutor;

    fn tweet_with_urls(ts: u64, urls: &[&str]) -> Event {
        let value = Json::obj([
            ("user", Json::str("u")),
            ("urls", Json::arr(urls.iter().map(|u| Json::str(*u)))),
        ]);
        Event::new(TWEET_STREAM, ts, Key::from("u"), value.to_compact().into_bytes())
    }

    fn run(urls_per_event: &[Vec<&str>], k: usize) -> Vec<(String, u64)> {
        let wf = workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(UrlMapper::new());
        exec.register_updater(UrlCounter::new());
        exec.register_updater(TopKUpdater::new(k));
        for (i, urls) in urls_per_event.iter().enumerate() {
            exec.push_external(TWEET_STREAM, tweet_with_urls(i as u64, urls));
        }
        exec.run_to_completion().unwrap();
        exec.slate(TOP_K, &Key::from(LEADERBOARD_KEY))
            .map(TopKUpdater::leaderboard)
            .unwrap_or_default()
    }

    #[test]
    fn leaderboard_ranks_by_count() {
        let events =
            vec![vec!["a.com", "b.com"], vec!["a.com"], vec!["a.com", "c.com"], vec!["b.com"]];
        let board = run(&events, 10);
        assert_eq!(board[0], ("a.com".to_string(), 3));
        assert_eq!(board[1], ("b.com".to_string(), 2));
        assert_eq!(board[2], ("c.com".to_string(), 1));
    }

    #[test]
    fn truncates_to_k() {
        let events: Vec<Vec<&str>> =
            vec![vec!["u1.com"], vec!["u2.com"], vec!["u3.com"], vec!["u4.com"], vec!["u1.com"]];
        let board = run(&events, 2);
        assert_eq!(board.len(), 2);
        assert_eq!(board[0].0, "u1.com");
    }

    #[test]
    fn tweets_without_urls_contribute_nothing() {
        let board = run(&[vec![], vec![], vec![]], 10);
        assert!(board.is_empty());
    }

    #[test]
    fn counts_match_per_url_slates() {
        let events = [vec!["x.com"], vec!["x.com"], vec!["y.com"]];
        let wf = workflow();
        let mut exec = ReferenceExecutor::new(&wf);
        exec.register_mapper(UrlMapper::new());
        exec.register_updater(UrlCounter::new());
        exec.register_updater(TopKUpdater::new(10));
        for (i, urls) in events.iter().enumerate() {
            exec.push_external(TWEET_STREAM, tweet_with_urls(i as u64, urls));
        }
        exec.run_to_completion().unwrap();
        assert_eq!(exec.slate(URL_COUNTER, &Key::from("x.com")).unwrap().counter(), 2);
        assert_eq!(exec.slate(URL_COUNTER, &Key::from("y.com")).unwrap().counter(), 1);
    }
}
