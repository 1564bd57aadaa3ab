//! The open-loop load generator: it sends on a schedule fixed in advance
//! and times each request from its due time, so a stalled reply charges
//! every request queued behind it. (The closed loops, which send the next
//! request when the last reply arrives, live with their workloads.)

use rand::Rng;
use std::time::{Duration, Instant};

/// When one request was due, sent, and answered, in seconds since the
/// loop started, plus whether it succeeded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Scheduled send time (open loop); the send time (closed loop).
    pub due: f64,
    /// When the request was written.
    pub sent: f64,
    /// When its reply was read.
    pub done: f64,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Items the request had acked (0 for reads and failures).
    pub items: u64,
}

impl Timing {
    /// Client-visible latency in microseconds, counted from the due time.
    pub fn latency_us(&self) -> f64 {
        (self.done - self.due) * 1e6
    }

    /// How late the generator sent the request, in microseconds.
    pub fn lag_us(&self) -> f64 {
        (self.sent - self.due).max(0.0) * 1e6
    }
}

/// Due times of `n` requests arriving as a Poisson process of `rate` per
/// second: independent users, so no request's phase is locked to
/// another's, and a run averages over every interleaving of the streams.
pub fn poisson_schedule(n: usize, rate: f64, rng: &mut impl Rng) -> Vec<Duration> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // 1 - u is in (0, 1], so the logarithm is finite.
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Sends request `k` at `start + due[k]` (or as soon as the previous reply
/// is in, when that is later) and records its timing; `op` returns the
/// items acked, or `None` on failure. Requests still unsent at `cap` are
/// not sent and come back as failed, so an overrun is counted rather than
/// silently dropped.
pub fn open_loop(
    start: Instant,
    due: &[Duration],
    cap: Instant,
    mut op: impl FnMut(usize) -> Option<u64>,
) -> Vec<Timing> {
    let mut out = Vec::with_capacity(due.len());
    for (k, &offset) in due.iter().enumerate() {
        let due_at = start + offset;
        let due = offset.as_secs_f64();
        let now = Instant::now();
        if now >= cap {
            let t = now.duration_since(start).as_secs_f64();
            out.push(Timing {
                due,
                sent: t,
                done: t,
                ok: false,
                items: 0,
            });
            continue;
        }
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let sent = start.elapsed().as_secs_f64();
        let acked = op(k);
        let done = start.elapsed().as_secs_f64();
        out.push(Timing {
            due,
            sent,
            done,
            ok: acked.is_some(),
            items: acked.unwrap_or(0),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn every(n: u32, ms: u32) -> Vec<Duration> {
        (0..n)
            .map(|k| Duration::from_millis((k * ms).into()))
            .collect()
    }

    #[test]
    fn a_stalled_reply_charges_the_requests_queued_behind_it() {
        let far = Instant::now() + Duration::from_secs(60);
        // Due every 2 ms; request 1 stalls for 40 ms, every other reply
        // is immediate.
        let t = open_loop(Instant::now(), &every(12, 2), far, |k| {
            if k == 1 {
                std::thread::sleep(Duration::from_millis(40));
            }
            Some(1)
        });
        assert_eq!(t.len(), 12);
        assert!(t[0].latency_us() < 2_000.0, "{:?}", t[0]);
        assert!(t[1].latency_us() >= 40_000.0);
        for (k, r) in t.iter().enumerate().skip(2) {
            // Due at 2k ms, sent only after the stall ended at >= 42 ms:
            // its own service time is ~0, yet it waited 42 - 2k ms.
            let waited_ms = 42.0 - 2.0 * k as f64;
            assert!(
                r.latency_us() >= (waited_ms - 0.5) * 1e3,
                "request {k} was charged only {} us",
                r.latency_us()
            );
            assert!(r.lag_us() >= (waited_ms - 0.5) * 1e3);
            assert!(
                (r.done - r.sent) * 1e6 < 2_000.0,
                "service time stays small"
            );
        }
    }

    #[test]
    fn an_on_time_open_loop_has_small_latencies() {
        let far = Instant::now() + Duration::from_secs(60);
        let t = open_loop(Instant::now(), &every(5, 3), far, |_| Some(0));
        for r in &t {
            assert!(r.latency_us() < 2_000.0, "{r:?}");
        }
        assert!(t[4].due >= 0.012 && t[4].sent >= 0.012);
    }

    #[test]
    fn poisson_schedules_are_seeded_increasing_and_at_the_rate() {
        let a = poisson_schedule(20_000, 500.0, &mut StdRng::seed_from_u64(1));
        let b = poisson_schedule(20_000, 500.0, &mut StdRng::seed_from_u64(1));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            (span - 40.0).abs() < 1.5,
            "20000 arrivals at 500/s took {span} s"
        );
    }

    #[test]
    fn requests_past_the_cap_fail_instead_of_running() {
        let cap = Instant::now() + Duration::from_millis(15);
        let mut ran = 0;
        let t = open_loop(Instant::now(), &every(1_000, 0), cap, |_| {
            ran += 1;
            std::thread::sleep(Duration::from_millis(5));
            Some(0)
        });
        assert_eq!(t.len(), 1_000);
        let failed = t.iter().filter(|r| !r.ok).count();
        assert_eq!(failed, 1_000 - ran);
        assert!((1..=4).contains(&ran), "ran {ran}");
    }
}
