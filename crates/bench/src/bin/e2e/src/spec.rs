//! The four workloads: what each one feeds the cluster, at which frozen
//! rates, and why it exists. The names and the `why` lines are the ones
//! `BENCHMARK.json` carries; the README records the calibration that
//! produced the rates.

use std::sync::Arc;

use muppet_apps::reputation::{self, ReputationMapper, ReputationScorer};
use muppet_apps::split_counter::CombiningCounter;
use muppet_core::event::Event;
use muppet_core::reference::ReferenceExecutor;
use muppet_core::workflow::Workflow;
use muppet_runtime::engine::OperatorSet;
use muppet_workloads::tweets::TweetGenerator;
use muppet_workloads::{zipf_events, ZIPF_STREAM};

use crate::probe::{Probe, Timed};

/// The counter workloads' only operator.
pub const COUNTER: &str = "zipf-counter";

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Input {
    /// `apps::reputation` over `TweetGenerator` (Zipf 1.05 users, ≈150 B
    /// JSON payloads): mapper → per-user JSON slate.
    Tweets { users: usize },
    /// `zipf_events(keys, s)` → `CombiningCounter`, one hop.
    Zipf { keys: usize, s: f64 },
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub input: Input,
    /// Source events of the closed-loop flood.
    pub n_flood: usize,
    /// Open-loop ingest rates (events/s), frozen at definition time.
    pub rate_base: f64,
    pub rate_peak: f64,
    /// Open-loop HTTP slate reads per second in `base` and in `peak`.
    pub read_rate_base: f64,
    pub read_rate_peak: f64,
    /// `cluster3` deltas; `None` keeps `EngineConfig::default()`.
    pub slate_cache_capacity: Option<usize>,
    pub combine: bool,
    pub hot_split_threshold: u64,
    /// Set-up writes every key of the universe into the store once.
    pub prepopulate: bool,
    /// Closed-loop events of set-up that fill the slate caches, so that
    /// the measured phases evict from their first event on.
    pub cache_fill: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "reputation_wide",
        why: "JSON- and wire-heavy: json/mbf, net frame and tcp batching, ingest-WAL bytes do \
              the work; cache always hits, store idle until checkpoint",
        input: Input::Tweets { users: 50_000 },
        n_flood: 200_000,
        rate_base: 30_000.0,
        rate_peak: 54_000.0,
        read_rate_base: 100.0,
        read_rate_peak: 100.0,
        slate_cache_capacity: None,
        combine: false,
        hot_split_threshold: 0,
        prepopulate: false,
        cache_fill: 0,
    },
    Spec {
        name: "counters_cold",
        why: "state-heavy: uniform keys over a cache holding 10 % of them, so cache miss/evict, \
              netstore round trips and slatestore dominate; bypasses skew remedies",
        input: Input::Zipf { keys: 90_000, s: 0.0 },
        n_flood: 5_000,
        rate_base: 600.0,
        rate_peak: 900.0,
        read_rate_base: 100.0,
        read_rate_peak: 100.0,
        slate_cache_capacity: Some(3_000),
        combine: false,
        hot_split_threshold: 0,
        prepopulate: true,
        cache_fill: 11_000,
    },
    Spec {
        name: "counters_skew",
        why: "scheduling-heavy: Zipf 1.2 over 500 keys with combiners and hot-key splitting, so \
              queue, dispatch, fold and one hot slate lock dominate; bypasses store and codec",
        input: Input::Zipf { keys: 500, s: 1.2 },
        n_flood: 500_000,
        rate_base: 80_000.0,
        rate_peak: 120_000.0,
        read_rate_base: 100.0,
        read_rate_peak: 100.0,
        slate_cache_capacity: None,
        combine: true,
        hot_split_threshold: 500,
        prepopulate: false,
        cache_fill: 0,
    },
    Spec {
        name: "reputation_reads",
        why: "read-heavy: reputation_wide's ingest at its base rate while HTTP slate reads peak, \
              so byte materialisation of resident slates and the pooled sync connections show",
        input: Input::Tweets { users: 50_000 },
        n_flood: 200_000,
        rate_base: 30_000.0,
        rate_peak: 30_000.0,
        read_rate_base: 1_000.0,
        read_rate_peak: 2_000.0,
        slate_cache_capacity: None,
        combine: false,
        hot_split_threshold: 0,
        prepopulate: false,
        cache_fill: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    pub fn workflow(&self) -> Workflow {
        match self.input {
            Input::Tweets { .. } => reputation::workflow(),
            Input::Zipf { .. } => {
                let mut b = Workflow::builder("e2e-counters");
                b.external_stream(ZIPF_STREAM);
                b.updater(COUNTER, &[ZIPF_STREAM]);
                b.build().expect("static workflow is valid")
            }
        }
    }

    /// Operator names down the chain; the index is the span kind and the
    /// workflow depth.
    pub fn op_names(&self) -> &'static [&'static str] {
        match self.input {
            Input::Tweets { .. } => &[reputation::MAPPER, reputation::SCORER],
            Input::Zipf { .. } => &[COUNTER],
        }
    }

    /// The updater whose deliveries are timed and whose slates are
    /// verified.
    pub fn terminal(&self) -> &'static str {
        self.op_names()[self.op_names().len() - 1]
    }

    /// Every operator wrapped in [`Timed`]; the last one is terminal.
    pub fn operators(&self, probe: &Arc<Probe>) -> OperatorSet {
        match self.input {
            Input::Tweets { .. } => OperatorSet::new()
                .mapper(Timed::new(ReputationMapper::new(), 0, false, probe))
                .updater(Timed::new(ReputationScorer::new(), 1, true, probe)),
            Input::Zipf { .. } => OperatorSet::new().updater(Timed::new(
                CombiningCounter::named(COUNTER),
                0,
                true,
                probe,
            )),
        }
    }

    /// The same operators, bare, on the single-threaded reference.
    pub fn reference<'wf>(&self, wf: &'wf Workflow) -> ReferenceExecutor<'wf> {
        let mut exec = ReferenceExecutor::new(wf).with_step_budget(u64::MAX);
        match self.input {
            Input::Tweets { .. } => {
                exec.register_mapper(ReputationMapper::new());
                exec.register_updater(ReputationScorer::new());
            }
            Input::Zipf { .. } => {
                exec.register_updater(CombiningCounter::named(COUNTER));
            }
        }
        exec
    }

    pub fn stream(&self) -> &'static str {
        match self.input {
            Input::Tweets { .. } => reputation::TWEET_STREAM,
            Input::Zipf { .. } => ZIPF_STREAM,
        }
    }

    /// `n` source events from `seed`. Their `ts` is a placeholder: the
    /// replayer overwrites it with the due time when it issues them.
    pub fn events(&self, n: usize, seed: u64) -> Vec<Event> {
        match self.input {
            Input::Tweets { users } => {
                TweetGenerator::new(seed, users, 1.0).take(reputation::TWEET_STREAM, n)
            }
            Input::Zipf { keys, s } => zipf_events(keys, s, n, seed),
        }
    }

    /// The events whose effect set-up writes straight into the store, one
    /// per key of the universe (empty unless `prepopulate`): the reference
    /// replays them, the cluster finds their slates at rest.
    pub fn prepopulate_events(&self) -> Vec<Event> {
        match self.input {
            Input::Zipf { keys, .. } if self.prepopulate => (0..keys)
                .map(|rank| Event::new(ZIPF_STREAM, 0, format!("k{rank}").into(), &b"1"[..]))
                .collect(),
            _ => Vec::new(),
        }
    }
}
