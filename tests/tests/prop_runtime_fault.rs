//! Fault-injection suite for the shard runtime (PR 7): worker panics,
//! stalls, and queue saturation are injected through the `hh-faults`
//! hooks, and the runtime must degrade exactly as documented —
//! quarantine the dead shard, keep every other shard ingesting and
//! serving reads, account for every dropped item, and rebuild the
//! shard from its last checkpoint on [`ShardRuntime::recover`].
//!
//! Everything here runs under [`FailurePolicy::Quarantine`]; the
//! default propagate-the-panic behavior is pinned separately by
//! `prop_shard_runtime.rs`.

use hh_baselines::MisraGriesBaseline;
use hh_core::{HeavyHitters, MergeableSummary, MisraGries};
use hh_faults::{FaultSwitch, FaultySummary};
use hh_pipeline::{
    Backpressure, FailurePolicy, FlushError, IngestMode, RecoverError, ShardRuntime,
};
use std::sync::Arc;
use std::time::Duration;

/// Three shards of `FaultySummary<MisraGries>`, each with its own
/// switch, in the given mode with quarantine enabled.
fn faulty_runtime(
    shards: usize,
    mode: IngestMode,
) -> (
    ShardRuntime<FaultySummary<MisraGries>>,
    Vec<Arc<FaultSwitch>>,
) {
    let switches: Vec<_> = (0..shards).map(|_| FaultSwitch::new()).collect();
    let summaries = switches
        .iter()
        .map(|sw| FaultySummary::new(MisraGries::new(64, 40), Arc::clone(sw)))
        .collect();
    let mut rt = ShardRuntime::new(summaries, mode);
    rt.set_failure_policy(FailurePolicy::Quarantine);
    (rt, switches)
}

fn processed(rt: &ShardRuntime<FaultySummary<MisraGries>>, j: usize) -> u64 {
    rt.with_summary(j, |s| s.inner().processed())
}

#[test]
fn quarantined_shard_recovers_from_its_checkpoint() {
    let (mut rt, switches) = faulty_runtime(3, IngestMode::Parallel);
    assert!(rt.is_parallel());

    // Seed every shard, then checkpoint: this is the state recover()
    // must reproduce.
    for j in 0..3 {
        rt.dispatch_ref(j, &vec![j as u64; 100]);
    }
    assert_eq!(rt.checkpoint(), 3);
    let at_checkpoint = processed(&rt, 1);
    assert_eq!(at_checkpoint, 100);

    // Kill shard 1 mid-batch and let the barrier discover the body.
    switches[1].arm_panic_after(0);
    rt.dispatch_ref(1, &[42; 50]);
    rt.flush();
    let health = rt.health();
    assert_eq!(health.poisoned.len(), 1, "exactly one shard quarantined");
    assert_eq!(health.poisoned[0].0, 1);
    assert!(
        health.poisoned[0].1.contains("injected fault"),
        "panic message surfaces in health: {:?}",
        health.poisoned[0].1
    );

    // The other shards keep ingesting and serving reads...
    rt.dispatch_ref(0, &[7; 25]);
    rt.dispatch_ref(2, &[9; 25]);
    rt.flush();
    assert_eq!(processed(&rt, 0), 125);
    assert_eq!(processed(&rt, 2), 125);

    // ...while traffic for the dead shard is shed and counted.
    rt.dispatch_ref(1, &[42; 30]);
    assert!(rt.health().shed_items >= 30, "poisoned shard sheds");

    // A live shard has nothing to recover from.
    assert_eq!(rt.recover(0), Err(RecoverError::NotQuarantined));

    // Recovery restores the checkpointed state and respawns the worker.
    rt.recover(1).expect("checkpoint restores");
    assert!(rt.health().poisoned.is_empty());
    assert_eq!(processed(&rt, 1), at_checkpoint);

    // The rebuilt shard ingests again (its fresh switch is disarmed).
    rt.dispatch_ref(1, &[42; 60]);
    rt.flush();
    assert_eq!(processed(&rt, 1), at_checkpoint + 60);
}

#[test]
fn recover_without_a_checkpoint_is_refused() {
    let (mut rt, switches) = faulty_runtime(2, IngestMode::Parallel);
    switches[0].arm_panic_after(0);
    rt.dispatch_ref(0, &[1; 10]);
    rt.flush();
    assert_eq!(rt.health().poisoned.len(), 1);
    assert_eq!(rt.recover(0), Err(RecoverError::NoCheckpoint));
}

#[test]
fn flush_timeout_names_the_stalled_shard_and_later_succeeds() {
    let (mut rt, switches) = faulty_runtime(2, IngestMode::Parallel);

    // Shard 0's worker sleeps 400ms inside the batch it is ingesting,
    // so a 50ms barrier deadline must expire with shard 0 pending.
    switches[0].stall_for(Duration::from_millis(400));
    rt.dispatch_ref(0, &[5; 10]);
    rt.dispatch_ref(1, &[6; 10]);
    let err = rt.flush_timeout(Duration::from_millis(50)).unwrap_err();
    match err {
        FlushError::TimedOut { pending } => {
            assert!(pending.contains(&0), "stalled shard is named: {pending:?}")
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }

    // The batch was delayed, not lost: once the stall clears, a plain
    // flush drains it.
    switches[0].clear_stall();
    rt.flush();
    assert_eq!(processed(&rt, 0), 10);
    assert_eq!(processed(&rt, 1), 10);
    assert!(rt.health().all_healthy(), "a stall is not a failure");
}

#[test]
fn shed_backpressure_drops_batches_instead_of_blocking() {
    let (mut rt, switches) = faulty_runtime(1, IngestMode::Parallel);
    rt.set_backpressure(Backpressure::Shed);

    // With the worker stalled 300ms per batch and a queue two deep,
    // eight rapid-fire batches cannot all fit: the overflow must be
    // shed (and counted), never blocked on.
    switches[0].stall_for(Duration::from_millis(300));
    for _ in 0..8 {
        rt.dispatch_ref(0, &[3; 100]);
    }
    switches[0].clear_stall();
    rt.flush();

    let shed = rt.health().shed_items;
    assert!(shed >= 100, "at least one batch was shed, got {shed}");
    assert_eq!(
        processed(&rt, 0) + shed,
        800,
        "every item is either ingested or counted as shed"
    );
}

#[test]
fn sequential_mode_quarantines_inline_panics() {
    let (mut rt, switches) = faulty_runtime(2, IngestMode::Sequential);
    assert!(!rt.is_parallel());

    rt.dispatch_ref(0, &[1; 40]);
    rt.dispatch_ref(1, &[2; 40]);
    assert_eq!(rt.checkpoint(), 2);

    // An inline panic is caught, the shard poisoned, the items charged.
    switches[0].arm_panic_after(0);
    rt.dispatch_ref(0, &[1; 15]);
    let health = rt.health();
    assert_eq!(health.poisoned.len(), 1);
    assert_eq!(health.poisoned[0].0, 0);
    assert_eq!(health.shed_items, 15);

    // The sibling shard is untouched, and recovery works without any
    // worker threads in the picture.
    rt.dispatch_ref(1, &[2; 10]);
    assert_eq!(processed(&rt, 1), 50);
    rt.recover(0).expect("sequential recover");
    rt.dispatch_ref(0, &[1; 5]);
    assert_eq!(processed(&rt, 0), 45);
}

#[test]
fn seeded_checkpoints_arm_recovery_without_a_flush_or_an_encode() {
    use hh_core::{MergeableSummary as _, StreamSummary as _};
    // A bank restored from bytes the caller already holds: the runtime
    // is handed those bytes instead of re-encoding its fresh shards.
    let switches: Vec<_> = (0..2).map(|_| FaultSwitch::new()).collect();
    let mut summaries: Vec<_> = switches
        .iter()
        .map(|sw| FaultySummary::new(MisraGries::new(64, 40), Arc::clone(sw)))
        .collect();
    for (j, s) in summaries.iter_mut().enumerate() {
        s.insert_batch(&vec![j as u64 + 1; 70]);
    }
    let bytes: Vec<Arc<[u8]>> = summaries.iter().map(|s| s.to_bytes().into()).collect();
    let mut rt = ShardRuntime::new(summaries, IngestMode::Parallel);
    rt.set_failure_policy(FailurePolicy::Quarantine);
    assert_eq!(rt.health().checkpointed, 0);
    rt.seed_checkpoints(bytes.clone());
    assert_eq!(rt.health().checkpointed, 2, "seeding arms every slot");

    rt.dispatch_ref(1, &[5; 30]);
    switches[1].arm_panic_after(0);
    rt.dispatch_ref(1, &[5; 30]);
    rt.flush();
    assert_eq!(rt.health().poisoned.len(), 1);
    rt.recover(1).expect("recover from the seeded bytes");
    assert_eq!(processed(&rt, 1), 70, "rebuilt as seeded");
    assert_eq!(rt.with_summary(1, |s| s.to_bytes()), &bytes[1][..]);
    assert_eq!(processed(&rt, 0), 70, "the sibling never moved");
}

#[test]
#[should_panic(expected = "one checkpoint per shard")]
fn seeding_the_wrong_number_of_checkpoints_is_refused() {
    let (mut rt, _switches) = faulty_runtime(3, IngestMode::Sequential);
    rt.seed_checkpoints(Vec::new());
}

/// The served read: a flush barrier, then the merge of every shard the
/// health snapshot does not name as quarantined.
fn merged_live(rt: &ShardRuntime<FaultySummary<MisraGriesBaseline>>) -> MisraGriesBaseline {
    rt.flush();
    let poisoned: Vec<usize> = rt.health().poisoned.iter().map(|&(j, _)| j).collect();
    let mut live = (0..rt.len())
        .filter(|j| !poisoned.contains(j))
        .map(|j| rt.with_summary(j, |s| s.inner().clone()));
    let mut acc = live.next().expect("at least one live shard");
    for part in live {
        acc.merge_from(&part)
            .expect("same-parameter summaries merge");
    }
    acc
}

#[test]
fn pipeline_surface_reports_health_and_supports_recovery() {
    let switches: Vec<_> = (0..4).map(|_| FaultSwitch::new()).collect();
    let shards: Vec<_> = switches
        .iter()
        .map(|sw| FaultySummary::new(MisraGriesBaseline::new(0.05, 0.15, 1 << 40), Arc::clone(sw)))
        .collect();
    let mut rt = ShardRuntime::new(shards, IngestMode::Parallel);
    rt.set_failure_policy(FailurePolicy::Quarantine);
    assert!(rt.health().all_healthy());

    let warmup: Vec<u64> = (0..2_000).map(|i| i % 50).collect();
    for (j, part) in warmup.chunks(500).enumerate() {
        rt.dispatch_ref(j, part);
    }
    assert_eq!(rt.checkpoint(), 4);

    // Panic the shard a batch of a hot key is sent to.
    let hot = 7u64;
    let victim = 2;
    switches[victim].arm_panic_after(0);
    rt.dispatch_ref(victim, &[hot; 100]);

    // The surviving shards still produce a merged report, and health
    // names the quarantined shard.
    let report = merged_live(&rt).report();
    let health = rt.health();
    assert_eq!(health.poisoned.len(), 1);
    assert_eq!(health.poisoned[0].0, victim);
    drop(report);

    // Recover from the checkpoint and keep streaming.
    rt.recover(victim).expect("recover");
    assert!(rt.health().poisoned.is_empty());
    rt.dispatch_ref(victim, &[hot; 500]);
    let report = merged_live(&rt).report();
    assert!(
        report.contains(hot),
        "recovered shard reports its heavy hitter again"
    );
}
