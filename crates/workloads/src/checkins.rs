//! A synthetic Foursquare-checkin stand-in.
//!
//! The retailer-counting application (Example 1 / Figure 1(b) / Figure 3)
//! parses checkin JSON, matches the venue name against retailer patterns
//! ("(?i)\\s*wal.*mart.*" in Figure 3), and counts per retailer. The
//! generator emits venue names with realistic spelling noise so the
//! pattern-matching path is actually exercised, and exposes the canonical
//! venue→retailer ground truth so experiments can verify exact counts.

use muppet_core::event::{Event, Key};
use muppet_core::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::arrivals::ArrivalProcess;
use crate::zipf::Zipf;

/// Canonical retailers with their noisy venue-name variants.
pub const RETAILER_VENUES: &[(&str, &[&str])] = &[
    (
        "Walmart",
        &["Walmart Supercenter", "Wal-Mart #1234", "walmart neighborhood market", "WALMART"],
    ),
    ("Sam's Club", &["Sam's Club", "sams club gas", "SAM'S CLUB #55"]),
    ("Best Buy", &["Best Buy", "BestBuy Mobile", "best buy store 42"]),
    ("Target", &["Target", "SuperTarget", "target store"]),
    ("JCPenney", &["JCPenney", "JC Penney Salon", "jcpenney outlet"]),
];

/// Venues with no retailer (the mapper must ignore these).
pub const OTHER_VENUES: &[&str] = &[
    "Joe's Coffee",
    "Central Park",
    "Airport Terminal B",
    "Museum of Modern Art",
    "Pizza Palace",
    "24h Gym",
];

/// The ground-truth canonical retailer for a venue name, if any. This is
/// the oracle experiments compare the application's regex matching against.
pub fn canonical_retailer(venue: &str) -> Option<&'static str> {
    for (retailer, variants) in RETAILER_VENUES {
        if variants.contains(&venue) {
            return Some(retailer);
        }
    }
    None
}

/// Synthetic checkin stream generator.
#[derive(Debug)]
pub struct CheckinGenerator {
    rng: StdRng,
    users: Zipf,
    venue_dist: Zipf,
    venues: Vec<&'static str>,
    arrivals: ArrivalProcess,
    now_us: u64,
    seq: u64,
}

impl CheckinGenerator {
    /// A generator over `n_users` users at `rate` checkins/sec.
    pub fn new(seed: u64, n_users: usize, rate_per_sec: f64) -> Self {
        let mut venues: Vec<&'static str> = Vec::new();
        for (_, variants) in RETAILER_VENUES {
            venues.extend_from_slice(variants);
        }
        venues.extend_from_slice(OTHER_VENUES);
        CheckinGenerator {
            rng: StdRng::seed_from_u64(seed),
            users: Zipf::new(n_users.max(1), 0.9),
            venue_dist: Zipf::new(venues.len(), 1.0),
            venues,
            arrivals: ArrivalProcess::Poisson { events_per_sec: rate_per_sec },
            now_us: 0,
            seq: 0,
        }
    }

    /// Override venue popularity skew (hotspot experiments crank this up
    /// so one retailer floods its updater, Example 6).
    pub fn with_venue_skew(mut self, s: f64) -> Self {
        self.venue_dist = Zipf::new(self.venues.len(), s);
        self
    }

    /// All venue names this generator can emit.
    pub fn venues(&self) -> &[&'static str] {
        &self.venues
    }

    /// Generate the next checkin event. Key = user id; value = checkin
    /// JSON with the venue object.
    pub fn next_event(&mut self, stream: &str) -> Event {
        let user = format!("user-{}", self.users.sample(&mut self.rng));
        let venue = self.venues[self.venue_dist.sample(&mut self.rng)];
        self.seq += 1;
        let value = Json::obj([
            ("id", Json::num(self.seq as f64)),
            ("user", Json::str(user.clone())),
            (
                "venue",
                Json::obj([
                    ("name", Json::str(venue)),
                    ("lat", Json::num(37.0 + self.rng.gen_range(-0.5..0.5))),
                    ("lng", Json::num(-122.0 + self.rng.gen_range(-0.5..0.5))),
                ]),
            ),
        ])
        .to_compact()
        .into_bytes();
        let ts = self.now_us;
        self.now_us += self.arrivals.next_gap_us(self.now_us, &mut self.rng).max(1);
        Event::new(stream, ts, Key::from(user), value)
    }

    /// Generate `n` events.
    pub fn take(&mut self, stream: &str, n: usize) -> Vec<Event> {
        (0..n).map(|_| self.next_event(stream)).collect()
    }

    /// Ground truth: expected count per canonical retailer for a batch of
    /// events previously generated (parses the JSON back).
    pub fn expected_retailer_counts(events: &[Event]) -> std::collections::BTreeMap<String, u64> {
        let mut counts = std::collections::BTreeMap::new();
        for ev in events {
            let v = Json::from_payload(&ev.value).expect("generator emits valid JSON");
            let venue = v.get("venue").unwrap().get("name").unwrap().as_str().unwrap();
            if let Some(retailer) = canonical_retailer(venue) {
                *counts.entry(retailer.to_string()).or_insert(0) += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkins_are_valid_json() {
        let mut gen = CheckinGenerator::new(11, 50, 100.0);
        for ev in gen.take("S1", 50) {
            let v = Json::from_payload(&ev.value).unwrap();
            assert!(v.get("venue").unwrap().get("name").is_some());
            assert!(v.get("user").is_some());
        }
    }

    #[test]
    fn canonical_retailer_maps_known_variants() {
        assert_eq!(canonical_retailer("Wal-Mart #1234"), Some("Walmart"));
        assert_eq!(canonical_retailer("sams club gas"), Some("Sam's Club"));
        assert_eq!(canonical_retailer("BestBuy Mobile"), Some("Best Buy"));
        assert_eq!(canonical_retailer("Joe's Coffee"), None);
        assert_eq!(canonical_retailer("unknown venue"), None);
    }

    #[test]
    fn ground_truth_counts_cover_all_retail_checkins() {
        let mut gen = CheckinGenerator::new(5, 100, 1000.0);
        let events = gen.take("S1", 2000);
        let counts = CheckinGenerator::expected_retailer_counts(&events);
        let total: u64 = counts.values().sum();
        assert!(total > 0, "some checkins hit retailers");
        assert!(total < 2000, "some checkins are non-retail");
        for retailer in counts.keys() {
            assert!(RETAILER_VENUES.iter().any(|(r, _)| r == retailer));
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = CheckinGenerator::new(3, 20, 100.0).take("S1", 20);
        let b = CheckinGenerator::new(3, 20, 100.0).take("S1", 20);
        assert_eq!(a, b);
    }

    #[test]
    fn venue_skew_concentrates_checkins() {
        let mut hot = CheckinGenerator::new(1, 100, 100.0).with_venue_skew(2.5);
        let events = hot.take("S1", 5000);
        let mut venue_counts = std::collections::HashMap::new();
        for ev in &events {
            let v = Json::from_payload(&ev.value).unwrap();
            let name = v.get("venue").unwrap().get("name").unwrap().as_str().unwrap().to_string();
            *venue_counts.entry(name).or_insert(0u32) += 1;
        }
        let top = venue_counts.values().max().copied().unwrap();
        assert!(top as f64 / 5000.0 > 0.5, "skew 2.5 should concentrate >50% on one venue: {top}");
    }
}
