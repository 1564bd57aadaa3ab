//! Fault-injection suite for the snapshot codec: every
//! [`MergeableSummary`] in the workspace is driven through the
//! `hh-faults` byte-level corruptors, and the contract is the same for
//! all nine —
//!
//! 1. **truncation at every offset** returns a structured `Err`, never
//!    a panic — both as cut (the trailer no longer matches) and with
//!    the adversary *forging a valid checksum* over the truncated body,
//!    where the payload decoder's exact-consumption check must catch it;
//! 2. **single-bit flips** are *always* rejected (the trailing
//!    `fnv1a64x4` digest covers every body bit; tag bits fail the tag
//!    match instead), and flips with a forged checksum never panic the
//!    payload decoder whatever they hit;
//! 3. **inflated length prefixes** — a buffer rewritten to claim more
//!    payload than it carries — are rejected without the decoder
//!    allocating from the lie, even under a forged checksum, so the
//!    bound comes from the decode layer itself rather than the digest;
//! 4. **tag swaps** answer `WrongTag`: another summary type's tag, and
//!    this type's previous format tag, with or without a trailer;
//! 5. a clean buffer **round-trips bit-identically**.

use hh_baselines::{CountMin, CountSketch, LossyCounting, MisraGriesBaseline, SpaceSaving};
use hh_core::{
    HhParams, MergeableSummary, MisraGries, OptimalListHh, SimpleListHh, SnapshotError,
    StreamSummary,
};
use hh_faults::corrupt;
use hh_integration::planted;

// Kept modest on purpose: the truncation sweep decodes the buffer once
// per byte offset, so suite time grows quadratically with snapshot
// size. 5k items still populates every table, sampler, and RNG state.
const M: u64 = 5_000;
const EPS: f64 = 0.05;
const PHI: f64 = 0.15;

/// The workload every summary ingests before being snapshotted: two
/// genuine heavies over a light tail, enough stream to populate every
/// table, sampler, and RNG state.
fn workload(seed: u64) -> Vec<u64> {
    planted(M, &[(7, 0.30), (8, PHI + 0.02)], seed)
}

/// `body` with a freshly computed trailer — the forging adversary that
/// strips the checksum of its protective value and leaves the decoder's
/// own bounds as the only line of defense.
fn forge(body: &[u8]) -> Vec<u8> {
    let mut buf = body.to_vec();
    buf.extend_from_slice(&hh_space::fnv1a64x4(body).to_le_bytes());
    buf
}

/// The full assault on one summary type: every corruption class from
/// the module docs. `previous_tag` is the type's retired format tag.
/// `expected_digest` pins the `fnv1a64x4` of the whole snapshot, so a
/// codec change that moves a single encoded byte fails here.
fn assault<S: MergeableSummary>(
    summary: &S,
    tag: &str,
    previous_tag: &str,
    foreign_tag: &str,
    expected_digest: u64,
) {
    let buf = summary.to_bytes();
    let body = &buf[..buf.len() - 8];

    // (0) The encoding is pinned byte for byte.
    assert_eq!(
        hh_space::fnv1a64x4(&buf),
        expected_digest,
        "{tag}: snapshot bytes moved ({} bytes)",
        buf.len()
    );

    // (5) Clean round-trip: bit-identical bytes.
    let restored = S::from_bytes(&buf).expect("clean buffer restores");
    assert_eq!(
        restored.to_bytes(),
        buf,
        "{tag}: restore → snapshot must be bit-identical"
    );

    // (1) Truncation at every offset: structured Err, whether the
    // trailer is cut off with the body or forged over what is left.
    for t in corrupt::truncations(&buf) {
        assert!(
            S::from_bytes(t).is_err(),
            "{tag}: truncation to {} bytes must fail",
            t.len()
        );
    }
    for t in corrupt::truncations(body) {
        assert!(
            S::from_bytes(&forge(t)).is_err(),
            "{tag}: body truncated to {} bytes must fail under a forged checksum",
            t.len()
        );
    }

    // (2) Bit flips: the checksum rejects every one (digest or tag);
    // behind a forged checksum the decoder must merely never panic.
    for bad in corrupt::bit_flips(&buf, 0xF1A5, 200) {
        assert!(
            S::from_bytes(&bad).is_err(),
            "{tag}: checksummed buffer must reject any bit flip"
        );
    }
    for bad in corrupt::bit_flips(body, 0xF1A6, 200) {
        let _ = S::from_bytes(&forge(&bad)); // Ok or Err — panics fail the test
    }

    // (3) Inflated length prefixes. Unforged: the digest no longer
    // matches, so rejection is guaranteed. Forged: the decoder's own
    // length bounds must reject the lie — each prefix now claims more
    // bytes than the whole buffer holds, so an `Ok` would mean a
    // decoder trusted (and allocated from) an impossible length.
    for bad in corrupt::inflate_length_prefixes(&buf) {
        assert!(
            S::from_bytes(&bad).is_err(),
            "{tag}: inflated prefix must fail the checksum"
        );
        // Forged: must not panic nor over-allocate.
        let _ = S::from_bytes(&forge(&bad[..bad.len() - 8]));
    }

    // (4) Tag swaps: impersonating another type, or this type's retired
    // format (as it was written: no trailer; or with a stale or forged
    // one), is refused.
    let refused = |bytes: &[u8]| {
        matches!(
            S::from_bytes(bytes),
            Err(SnapshotError::WrongTag { .. }) | Err(SnapshotError::ChecksumMismatch)
        )
    };
    let foreign = corrupt::swap_tag(&buf, tag, foreign_tag).expect("tag present");
    assert!(refused(&foreign), "{tag}: foreign tag must be refused");
    let swapped = corrupt::swap_tag(&buf, tag, previous_tag).expect("tag present");
    let old_body = &swapped[..swapped.len() - 8];
    for bytes in [old_body, &swapped, &forge(old_body)] {
        assert!(
            refused(bytes),
            "{tag}: {previous_tag} buffer must be refused"
        );
    }
}

#[test]
fn algo1_snapshot_survives_the_assault() {
    let params = HhParams::new(EPS, PHI).unwrap();
    let mut s = SimpleListHh::new(params, 1 << 40, M, 11).unwrap();
    s.insert_batch(&workload(1));
    assault(
        &s,
        "hh.algo1.v4",
        "hh.algo1.v3",
        "hh.algo2.v4",
        0xA784_EEA3_70AE_1073,
    );
}

#[test]
fn algo2_snapshot_survives_the_assault() {
    // Algorithm 2's snapshot is dominated by its level structures, not
    // the stream: coarser (ε, φ) keep the buffer ~6 KB so the
    // every-offset truncation sweep stays affordable.
    let params = HhParams::new(0.2, 0.3).unwrap();
    let mut s = OptimalListHh::new(params, 1 << 40, 2_000, 12).unwrap();
    s.insert_batch(&planted(2_000, &[(7, 0.40), (8, 0.32)], 2));
    assault(
        &s,
        "hh.algo2.v5",
        "hh.algo2.v4",
        "hh.algo1.v4",
        0xEE42_C947_A07F_D4B2,
    );
}

#[test]
fn misra_gries_snapshot_survives_the_assault() {
    let mut s = MisraGries::new(64, 40);
    s.insert_batch(&workload(3));
    assault(
        &s,
        "hh.misra-gries.v4",
        "hh.misra-gries.v3",
        "hh.algo1.v4",
        0xD80B_872C_32B3_0142,
    );
}

#[test]
fn count_min_snapshot_survives_the_assault() {
    let mut s = CountMin::new(EPS, PHI, 0.05, 1 << 40, 14);
    s.insert_batch(&workload(4));
    assault(
        &s,
        "hh.baseline.count-min.v3",
        "hh.baseline.count-min.v2",
        "hh.baseline.count-sketch.v3",
        0x865E_537B_7E7A_7466,
    );
}

#[test]
fn count_sketch_snapshot_survives_the_assault() {
    let mut s = CountSketch::new(0.1, PHI, 0.1, 1 << 40, 15);
    s.insert_batch(&workload(5));
    assault(
        &s,
        "hh.baseline.count-sketch.v3",
        "hh.baseline.count-sketch.v2",
        "hh.baseline.count-min.v3",
        0xA492_A701_40E1_EA02,
    );
}

#[test]
fn lossy_counting_snapshot_survives_the_assault() {
    let mut s = LossyCounting::new(EPS, PHI, 1 << 40);
    s.insert_batch(&workload(6));
    assault(
        &s,
        "hh.baseline.lossy-counting.v3",
        "hh.baseline.lossy-counting.v2",
        "hh.baseline.space-saving.v4",
        0xB16F_E2EF_B8BC_9E06,
    );
}

#[test]
fn misra_gries_baseline_snapshot_survives_the_assault() {
    let mut s = MisraGriesBaseline::new(EPS, PHI, 1 << 40);
    s.insert_batch(&workload(7));
    assault(
        &s,
        "hh.baseline.misra-gries.v4",
        "hh.baseline.misra-gries.v3",
        "hh.misra-gries.v4",
        0xB2D7_05F4_800E_DD75,
    );
}

#[test]
fn space_saving_snapshot_survives_the_assault() {
    let mut s = SpaceSaving::new(EPS, PHI, 1 << 40);
    s.insert_batch(&workload(8));
    assault(
        &s,
        "hh.baseline.space-saving.v4",
        "hh.baseline.space-saving.v3",
        "hh.baseline.lossy-counting.v3",
        0xC998_F6FC_AB68_9864,
    );
}

#[test]
fn dyadic_bank_snapshot_survives_the_assault() {
    // `hh.dyadic.v1` is the bank's previous format, signed with the
    // previous digest. Coarse parameters and a small key space (4
    // levels) keep the buffer in the tens of kilobytes: the truncation
    // sweep is quadratic in snapshot size.
    let mut cm = hh_dyadic::DyadicHh::count_min(0.3, 0.4, 0.2, 1 << 4, 31).unwrap();
    cm.insert_batch(&workload(9).iter().map(|x| x & 0xF).collect::<Vec<_>>());
    assault(
        &cm,
        "hh.dyadic.v2",
        "hh.dyadic.v1",
        "hh.algo1.v4",
        0x3E09_C57E_EB5B_46CE,
    );
}

/// Structurally incompatible summaries smuggled through snapshots must
/// still refuse to merge: restore validates shape, `merge_from`
/// validates compatibility, and neither trusts the other to have done
/// its half.
#[test]
fn restored_snapshots_still_refuse_incompatible_merges() {
    let params = HhParams::new(EPS, PHI).unwrap();

    // Different structure seeds ⇒ different hash draws ⇒ Err.
    let mut a = SimpleListHh::with_seeds(params, 1 << 40, M, 1, 10).unwrap();
    let b = SimpleListHh::with_seeds(params, 1 << 40, M, 2, 10).unwrap();
    let b = SimpleListHh::from_bytes(&b.to_bytes()).unwrap();
    assert!(a.merge_from(&b).is_err(), "mismatched structure seeds");

    // Different candidate capacities in CountSketch ⇒ Err. No public
    // constructor varies the cap independently of φ, so smuggle one
    // through a crafted snapshot with a forged checksum: locate the
    // `[candidates = 0][candidate_cap]` run in the wire image and bump
    // the cap. The restored sketch is structurally identical except
    // for the cap, and the merge must still catch it.
    let mut d = CountSketch::with_dimensions(64, 3, PHI, 1 << 40, 5);
    let buf = d.to_bytes();
    let mut body = buf[..buf.len() - 8].to_vec();
    let cap = ((8.0 / PHI).ceil() as u64).max(8);
    let mut needle = 0u64.to_le_bytes().to_vec();
    needle.extend_from_slice(&cap.to_le_bytes());
    let at = body
        .windows(16)
        .rposition(|w| w == needle.as_slice())
        .expect("empty-candidates + cap run is unique near the buffer tail");
    body[at + 8..at + 16].copy_from_slice(&(cap + 1).to_le_bytes());
    let smuggled = CountSketch::from_bytes(&forge(&body)).expect("crafted cap is in range");
    let err = d.merge_from(&smuggled).unwrap_err();
    assert!(
        err.to_string().contains("candidate"),
        "mismatched candidate capacities must be refused, got: {err}"
    );

    // Different widths in Space-Saving ⇒ Err.
    let e = SpaceSaving::new(EPS / 2.0, PHI, 1 << 40);
    let mut f = SpaceSaving::new(EPS, PHI, 1 << 40);
    let e = SpaceSaving::from_bytes(&e.to_bytes()).unwrap();
    assert!(f.merge_from(&e).is_err(), "mismatched capacities");
}
