//! The load generator: one thread that issues events on a schedule that
//! does not slow when the system slows.
//!
//! Every event has a *due time*. At each 2 ms tick the generator sends
//! everything that has come due as one frame to the next node in turn,
//! and writes the due time into `Event::ts`, which is what latency is
//! later counted from. If a `submit` call blocks (throttle, fsync), the
//! frames behind it leave late and their events still carry their
//! original due times: no coordinated omission.

use std::time::{Duration, Instant};

use muppet_core::event::Event;
use rand::rngs::StdRng;
use rand::SeedableRng;

use muppet_workloads::arrivals::ArrivalProcess;

use crate::hist::Hist;
use crate::probe::{Probe, Span, KIND_SUBMIT};

pub const TICK_US: u64 = 2_000;
/// Frame size of the closed-loop flood.
pub const FLOOD_FRAME: usize = 64;

/// `len` consecutive events of a pool that repeats: the distinct inputs
/// of a run are generated (and kept) once, however many a phase sends.
#[derive(Clone, Copy)]
pub struct Events<'a> {
    pub pool: &'a [Event],
    pub first: usize,
    pub len: usize,
}

impl<'a> Events<'a> {
    pub fn get(&self, i: usize) -> &'a Event {
        &self.pool[(self.first + i) % self.pool.len()]
    }

    pub fn iter(self) -> impl Iterator<Item = &'a Event> {
        (0..self.len).map(move |i| self.get(i))
    }
}

/// Where frames go. The cluster implements it with `Engine::submit_many`;
/// the coordinated-omission test with a sink that stalls.
pub trait Sink {
    fn nodes(&self) -> usize;
    fn submit(&self, node: usize, frame: Vec<Event>) -> Result<(), String>;
}

/// Due times of one open-loop phase, in µs from the phase's start:
/// Poisson arrivals at `rate` for `duration`, strictly increasing.
pub fn poisson_offsets(rate: f64, duration: Duration, seed: u64) -> Vec<u64> {
    let limit = duration.as_micros() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let process = ArrivalProcess::Poisson { events_per_sec: rate };
    let mut offsets = Vec::with_capacity((rate * duration.as_secs_f64() * 1.05) as usize + 16);
    let mut now = process.next_gap_us(0, &mut rng);
    while now < limit {
        offsets.push(now);
        now += process.next_gap_us(now, &mut rng).max(1);
    }
    offsets
}

#[derive(Default)]
pub struct Issued {
    pub events: u64,
    pub frames: u64,
    /// Events in frames whose `submit` returned an error.
    pub failed: u64,
    /// Wall time spent inside `submit`.
    pub submit_ns: u64,
    /// How late each event left, against the tick it was due to leave on.
    pub late_us: Hist,
}

fn submit_frame(
    sink: &dyn Sink,
    probe: &Probe,
    node: usize,
    frame: Vec<Event>,
    issued: &mut Issued,
) {
    let n = frame.len() as u64;
    let (first, last) = (frame[0].ts, frame[frame.len() - 1].ts);
    let start_ns = probe.now_ns();
    let result = sink.submit(node, frame);
    let end_ns = probe.now_ns();
    issued.events += n;
    issued.frames += 1;
    issued.submit_ns += end_ns - start_ns;
    if result.is_err() {
        issued.failed += n;
    }
    if probe.tracing() {
        probe.push_span(Span { kind: KIND_SUBMIT, id: first, aux: last, start_ns, end_ns });
    }
}

/// Issue `events[i]` at `offsets_us[i]` after now, open loop. Returns when
/// the last event has been sent.
pub fn replay(sink: &dyn Sink, probe: &Probe, events: Events, offsets_us: &[u64]) -> Issued {
    assert_eq!(events.len, offsets_us.len());
    let mut issued = Issued::default();
    let start_us = probe.now_us();
    let mut next = 0;
    let mut tick = 0u64;
    while next < events.len {
        // The tick the oldest unsent event is due to leave on; ticks that
        // passed while a submit blocked are not slept through again.
        tick = tick.max(offsets_us[next].div_ceil(TICK_US));
        let wake = probe.instant_at(start_us + tick * TICK_US);
        if let Some(wait) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let now_us = probe.now_us();
        let elapsed_us = now_us - start_us;
        let due = offsets_us[next..].partition_point(|&o| o <= elapsed_us);
        if due == 0 {
            continue;
        }
        let frame: Vec<Event> = (next..next + due)
            .map(|i| {
                let scheduled = start_us + offsets_us[i].div_ceil(TICK_US) * TICK_US;
                issued.late_us.record(now_us.saturating_sub(scheduled));
                Event { ts: start_us + offsets_us[i], ..events.get(i).clone() }
            })
            .collect();
        let node = issued.frames as usize % sink.nodes();
        submit_frame(sink, probe, node, frame, &mut issued);
        next += due;
        tick += 1;
    }
    issued
}

/// Issue `events` closed loop in frames of [`FLOOD_FRAME`], each sent as
/// soon as the previous `submit` returns.
pub fn flood(sink: &dyn Sink, probe: &Probe, events: Events) -> Issued {
    let mut issued = Issued::default();
    let mut ts = 0;
    for start in (0..events.len).step_by(FLOOD_FRAME) {
        let frame: Vec<Event> = (start..events.len.min(start + FLOOD_FRAME))
            .map(|i| {
                ts = probe.now_us().max(ts + 1);
                Event { ts, ..events.get(i).clone() }
            })
            .collect();
        let node = issued.frames as usize % sink.nodes();
        submit_frame(sink, probe, node, frame, &mut issued);
    }
    issued
}

/// Sleep until `deadline`, for callers that pace something other than
/// events.
pub fn sleep_until(deadline: Instant) {
    if let Some(wait) = deadline.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muppet_core::sync::Mutex;

    /// Records `now - due` per event on arrival and stalls once.
    struct StallingSink {
        probe: std::sync::Arc<Probe>,
        stall_on_frame: u64,
        stall: Duration,
        frames: Mutex<u64>,
        latency_us: Hist,
    }

    impl Sink for StallingSink {
        fn nodes(&self) -> usize {
            3
        }

        fn submit(&self, _node: usize, frame: Vec<Event>) -> Result<(), String> {
            let now_us = self.probe.now_us();
            for event in &frame {
                self.latency_us.record(now_us.saturating_sub(event.ts));
            }
            let mut frames = self.frames.lock();
            *frames += 1;
            if *frames == self.stall_on_frame {
                std::thread::sleep(self.stall);
            }
            Ok(())
        }
    }

    /// The coordinated-omission test: a 200 ms stall in the sink must show
    /// up as latency on the events that came due during it (they are
    /// timed from their due time, not from when the generator got round
    /// to them) and as generator lateness.
    #[test]
    fn a_stalled_sink_delays_later_events_from_their_due_time() {
        let probe = Probe::new(16);
        let duration = Duration::from_millis(1_000);
        let offsets = poisson_offsets(5_000.0, duration, 7);
        let events: Vec<Event> =
            (0..offsets.len()).map(|i| Event::new("s", 0, format!("k{i}").into(), "1")).collect();
        let sink = StallingSink {
            probe: std::sync::Arc::clone(&probe),
            stall_on_frame: 100,
            stall: Duration::from_millis(200),
            frames: Mutex::new(0),
            latency_us: Hist::new(),
        };
        let all = Events { pool: &events, first: 0, len: events.len() };
        let issued = replay(&sink, &probe, all, &offsets);

        assert_eq!(issued.events as usize, events.len(), "every event is sent");
        assert_eq!(issued.failed, 0);
        // About a fifth of the second's events came due while the sink
        // slept. Counted from send time they would all look prompt; from
        // due time the oldest of them waited most of the stall.
        assert!(
            sink.latency_us.max() >= 180_000,
            "latency must count from due time: max {} µs",
            sink.latency_us.max()
        );
        let stalled = sink.latency_us.count_above(20_000);
        assert!(
            stalled as f64 >= 0.12 * events.len() as f64,
            "{stalled} of {} events saw the stall",
            events.len()
        );
        let late_p99 = issued.late_us.percentile(0.99);
        assert!(late_p99 >= 150_000.0, "gen.late_p99_us must report the stall: {late_p99} µs");
        // And without a stall the generator is on time.
        assert!(issued.late_us.percentile(0.5) < 2_000.0);
        // Due times are strictly increasing, so they can serve as trace ids.
        assert!(offsets.windows(2).all(|w| w[0] < w[1]));
    }
}
