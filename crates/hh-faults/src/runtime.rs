//! Runtime fault hooks: a summary wrapper whose ingestion can be made
//! to panic or stall on command.
//!
//! [`FaultySummary`] wraps any summary and threads every insert through
//! an [`FaultSwitch`] shared with the test: arm a panic countdown and
//! the wrapper panics mid-batch after that many more items (the
//! shard-runtime quarantine path); set a stall and every batch sleeps
//! first (the slow-consumer / flush-timeout path). The switch is plain
//! atomics behind an [`Arc`], so tests flip faults while worker threads
//! are live, with no locks that could mask the race being tested.
//!
//! The wrapper forwards `MergeableSummary` verbatim — snapshots carry
//! the *inner* summary's bytes and tag — so a shard checkpointed while
//! faulty restores as a clean summary: exactly the "recover rebuilds
//! the worker from its last checkpoint" contract under test.

use hh_core::{
    FrequencyEstimator, HeavyHitters, MergeError, MergeableSummary, Report, SnapshotError,
    StreamSummary,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Countdown value meaning "no panic armed".
const DISARMED: u64 = u64::MAX;

/// Shared fault controls for one or more [`FaultySummary`] instances.
#[derive(Debug)]
pub struct FaultSwitch {
    /// Items remaining before an injected panic; [`DISARMED`] when off.
    panic_in: AtomicU64,
    /// Injected sleep per `insert_batch` call, in microseconds.
    stall_micros: AtomicU64,
}

impl FaultSwitch {
    /// A switch with every fault disarmed.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            panic_in: AtomicU64::new(DISARMED),
            stall_micros: AtomicU64::new(0),
        })
    }

    /// Arms an injected panic after `n` more inserted items (across all
    /// summaries sharing this switch).
    pub fn arm_panic_after(&self, n: u64) {
        self.panic_in.store(n, Ordering::SeqCst);
    }

    /// Disarms a pending injected panic.
    pub fn disarm_panic(&self) {
        self.panic_in.store(DISARMED, Ordering::SeqCst);
    }

    /// Makes every subsequent `insert_batch` sleep for `d` first — a
    /// deterministic stand-in for a slow or wedged consumer.
    pub fn stall_for(&self, d: Duration) {
        self.stall_micros.store(
            d.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::SeqCst,
        );
    }

    /// Clears the injected stall.
    pub fn clear_stall(&self) {
        self.stall_micros.store(0, Ordering::SeqCst);
    }

    /// Burns `n` items off the panic countdown; panics when it crosses
    /// zero. Called by the wrapper on every ingestion path.
    fn spend(&self, n: u64) {
        let before = self.panic_in.load(Ordering::SeqCst);
        if before == DISARMED {
            return;
        }
        if before <= n {
            self.panic_in.store(DISARMED, Ordering::SeqCst);
            panic!("injected fault: summary panicked mid-ingest");
        }
        self.panic_in.store(before - n, Ordering::SeqCst);
    }

    /// Applies the injected stall, if any.
    fn stall(&self) {
        let micros = self.stall_micros.load(Ordering::SeqCst);
        if micros > 0 {
            std::thread::sleep(Duration::from_micros(micros));
        }
    }
}

/// A summary wrapper that injects the faults armed on its
/// [`FaultSwitch`] into every ingestion call, and forwards everything
/// else to the wrapped summary.
#[derive(Debug, Clone)]
pub struct FaultySummary<S> {
    inner: S,
    switch: Arc<FaultSwitch>,
}

impl<S> FaultySummary<S> {
    /// Wraps `inner`, controlled by `switch`.
    pub fn new(inner: S, switch: Arc<FaultSwitch>) -> Self {
        Self { inner, switch }
    }

    /// The wrapped summary.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps back to the inner summary.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: StreamSummary> StreamSummary for FaultySummary<S> {
    fn insert(&mut self, item: u64) {
        self.switch.spend(1);
        self.inner.insert(item);
    }

    fn insert_batch(&mut self, items: &[u64]) {
        self.switch.stall();
        self.switch.spend(items.len() as u64);
        self.inner.insert_batch(items);
    }
}

impl<S: HeavyHitters> HeavyHitters for FaultySummary<S> {
    fn report(&self) -> Report {
        self.inner.report()
    }
}

impl<S: FrequencyEstimator> FrequencyEstimator for FaultySummary<S> {
    fn estimate(&self, item: u64) -> f64 {
        self.inner.estimate(item)
    }
}

impl<S: MergeableSummary> MergeableSummary for FaultySummary<S> {
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        self.inner.merge_from(&other.inner)
    }

    /// The inner summary's bytes, verbatim — a faulty wrapper
    /// checkpoints (and restores) as its clean payload.
    fn to_bytes(&self) -> Vec<u8> {
        self.inner.to_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Ok(Self::new(S::from_bytes(bytes)?, FaultSwitch::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_core::MisraGries;

    #[test]
    fn panic_countdown_fires_exactly_once() {
        let switch = FaultSwitch::new();
        switch.arm_panic_after(5);
        let mut s = FaultySummary::new(MisraGries::new(4, 16), Arc::clone(&switch));
        for i in 0..4 {
            s.insert(i);
        }
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.insert(9)));
        assert!(boom.is_err(), "fifth item crosses the countdown");
        // The switch disarms itself when it fires.
        s.insert(1);
        assert_eq!(s.inner().processed(), 5);
    }

    #[test]
    fn disarmed_switch_is_transparent() {
        let switch = FaultSwitch::new();
        let mut s = FaultySummary::new(MisraGries::new(4, 16), switch);
        s.insert_batch(&[1, 2, 3, 1]);
        assert_eq!(s.inner().processed(), 4);
    }

    #[test]
    fn snapshots_carry_the_clean_inner_summary() {
        let switch = FaultSwitch::new();
        let mut s = FaultySummary::new(MisraGries::new(4, 16), switch);
        s.insert_batch(&[1, 1, 2]);
        let bytes = s.to_bytes();
        let back = FaultySummary::<MisraGries>::from_bytes(&bytes).unwrap();
        assert_eq!(back.inner().processed(), 3);
        // And the bytes are interchangeable with the bare summary's.
        let bare = MisraGries::from_bytes(&bytes).unwrap();
        assert_eq!(bare.processed(), 3);
    }
}
