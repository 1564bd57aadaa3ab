//! Durable tenant state: the checkpoint directory layout, atomic
//! writes, and the fail-closed boot scan.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/<tenant>/spec.hhs      snapshot-codec TenantSpec ("hh.server.spec.v2")
//! <root>/<tenant>/bank.hhs      checkpoint bundle ("hh.server.bank.v2"):
//!                               every shard's snapshot + per-shard WAL
//!                               high-water marks + the dedup table
//! <root>/<tenant>/wal/          segmented write-ahead log (hh-wal)
//! <root>/.quarantine/<tenant>/  tenants that failed verification at boot
//! ```
//!
//! The bundle is **one file on purpose**: the shard bytes, the marks
//! that say which WAL records those bytes already cover, and the dedup
//! table that says which acks stand, must advance together. Split
//! across files, a crash between writes could pair new bytes with old
//! marks (records replayed twice) or old bytes with new marks (acked
//! records never replayed — silent loss).
//!
//! The spec never changes after `Create`, so it is written once, by
//! [`Store::save_tenant`] when the tenant is created. Checkpoint rounds
//! and eviction saves rewrite only the bundle ([`Store::save_bank`]).
//!
//! Every file is written `tmp → fsync → rename → fsync(dir)`, so a
//! crash — or a power cut — mid-write leaves either the old file or
//! the new one, durably, and never a torn one. Every
//! file is a tagged, checksummed snapshot-codec buffer, so the boot
//! scan can verify integrity before trusting a byte of payload.
//! Loading keeps each shard's verified snapshot bytes next to the
//! summary decoded from them ([`RecoveredTenant::shard_bytes`]), so a
//! restored tenant never re-encodes what it just read.
//!
//! The scan itself is *quarantine, don't refuse*: a tenant whose spec
//! or bundle fails verification is moved aside into `.quarantine/`
//! (forensics intact, WAL included) and reported, and the server boots
//! serving everyone else. Refusing to boot over one corrupt tenant
//! would turn a partial loss into a total outage.

use crate::durability::{BankSnapshot, DedupEntry};
use crate::facade::{DynSummary, TenantSpec};
use crate::proto::{validate_tenant_name, ProtocolError};
use hh_core::mergeable::snapshot;
use hh_core::MergeableSummary;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Snapshot-codec tag for persisted tenant specs (v2: signed with the
/// checksum's folded lane step, as is the bundle).
pub const SPEC_TAG: &str = "hh.server.spec.v2";

/// Snapshot-codec tag for the checkpoint bundle.
pub const BANK_TAG: &str = "hh.server.bank.v2";

/// Directory (under the root) holding tenants that failed boot
/// verification.
pub const QUARANTINE_DIR: &str = ".quarantine";

/// Name of the per-tenant WAL directory (managed by `hh-wal`).
pub const WAL_DIR: &str = "wal";

/// A tenant the boot scan restored successfully.
#[derive(Debug)]
pub struct RecoveredTenant {
    /// Tenant name (the directory name, validated).
    pub name: String,
    /// The spec its bank was rebuilt from.
    pub spec: TenantSpec,
    /// The restored shard bank, in shard order.
    pub shards: Vec<DynSummary>,
    /// The verified snapshot bytes each shard was decoded from, in
    /// shard order. Restore then snapshot is bit-identical for every
    /// kind, so these are the shard's current encoding.
    pub shard_bytes: Vec<Arc<[u8]>>,
    /// Per-shard WAL high-water marks from the bundle.
    pub hwms: Vec<u64>,
    /// The dedup table from the bundle.
    pub dedup: Vec<(u64, DedupEntry)>,
}

/// Everything the boot scan found.
#[derive(Debug, Default)]
pub struct BootReport {
    /// Tenants restored and ready to serve.
    pub recovered: Vec<RecoveredTenant>,
    /// Tenants moved to quarantine, as `(name, reason)` pairs.
    pub lost: Vec<(String, String)>,
}

/// The on-disk tenant store.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

/// Writes `bytes` to `path` atomically and durably: sibling temp
/// file, fsync, rename over the target, fsync of the parent
/// directory.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        use std::io::Write as _;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // The rename is only durable once the directory entry is: without
    // this, a power failure (unlike a mere process crash) could revert
    // to the old file after the server already counted the save.
    if let Some(dir) = path.parent() {
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn tenant_dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// The tenant's WAL directory (whether or not it exists yet).
    pub fn wal_dir(&self, name: &str) -> PathBuf {
        self.tenant_dir(name).join(WAL_DIR)
    }

    /// Persists a new tenant: creates its directory and writes its
    /// spec, then its first checkpoint bundle, each file atomically.
    /// The tenant name must already have passed [`validate_tenant_name`]
    /// (enforced again here — the name becomes a path component).
    pub fn save_tenant(
        &self,
        name: &str,
        spec: &TenantSpec,
        bank: &BankSnapshot,
    ) -> Result<(), ProtocolError> {
        validate_tenant_name(name)?;
        let dir = self.tenant_dir(name);
        fs::create_dir_all(&dir).map_err(ProtocolError::from)?;
        write_atomic(&dir.join("spec.hhs"), &snapshot::encode(SPEC_TAG, spec))?;
        self.save_bank(name, bank)
    }

    /// Rewrites an existing tenant's checkpoint bundle atomically,
    /// leaving its spec alone. Fails if the tenant directory is gone.
    pub fn save_bank(&self, name: &str, bank: &BankSnapshot) -> Result<(), ProtocolError> {
        validate_tenant_name(name)?;
        let path = self.tenant_dir(name).join("bank.hhs");
        write_atomic(&path, &snapshot::encode(BANK_TAG, bank))?;
        Ok(())
    }

    /// Loads one tenant directory, verifying the spec and the bundle.
    /// Used by the boot scan and by eviction rehydration. WAL replay is
    /// the *server's* job — this only restores what the checkpoint
    /// covers.
    pub(crate) fn load_tenant(&self, name: &str) -> Result<RecoveredTenant, String> {
        let dir = self.tenant_dir(name);
        let spec_bytes =
            fs::read(dir.join("spec.hhs")).map_err(|e| format!("spec unreadable: {e}"))?;
        let spec: TenantSpec =
            snapshot::decode(SPEC_TAG, &spec_bytes).map_err(|e| format!("spec rejected: {e}"))?;
        spec.validate().map_err(|e| format!("spec invalid: {e}"))?;
        let bank_bytes =
            fs::read(dir.join("bank.hhs")).map_err(|e| format!("bank unreadable: {e}"))?;
        let bank: BankSnapshot =
            snapshot::decode(BANK_TAG, &bank_bytes).map_err(|e| format!("bank rejected: {e}"))?;
        if bank.shards.len() != spec.shards as usize {
            return Err(format!(
                "bank holds {} shards but the spec says {}",
                bank.shards.len(),
                spec.shards
            ));
        }
        let mut shards = Vec::with_capacity(spec.shards as usize);
        let mut shard_bytes = Vec::with_capacity(spec.shards as usize);
        for (j, bytes) in bank.shards.into_iter().enumerate() {
            let summary =
                DynSummary::from_bytes(&bytes).map_err(|e| format!("shard {j} rejected: {e}"))?;
            if summary.kind() != spec.kind {
                return Err(format!(
                    "shard {j} restored as {:?} but the spec says {:?}",
                    summary.kind(),
                    spec.kind
                ));
            }
            shards.push(summary);
            shard_bytes.push(Arc::from(bytes));
        }
        Ok(RecoveredTenant {
            name: name.to_string(),
            spec,
            shards,
            shard_bytes,
            hwms: bank.hwms,
            dedup: bank.dedup,
        })
    }

    /// Moves a failed tenant directory into [`QUARANTINE_DIR`],
    /// suffixing the name if a previous quarantine already used it.
    /// The WAL directory rides along — forensics keep the whole story.
    pub(crate) fn quarantine(&self, name: &str) -> std::io::Result<()> {
        let pen = self.root.join(QUARANTINE_DIR);
        fs::create_dir_all(&pen)?;
        let mut target = pen.join(name);
        let mut n = 1;
        while target.exists() {
            target = pen.join(format!("{name}.{n}"));
            n += 1;
        }
        fs::rename(self.tenant_dir(name), target)
    }

    /// The boot scan: restores every verifiable tenant, quarantines the
    /// rest, refuses to boot over nothing. Unknown files and the
    /// quarantine pen itself are ignored.
    pub fn load_all(&self) -> std::io::Result<BootReport> {
        let mut report = BootReport::default();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Ok(name) = entry.file_name().into_string() else {
                continue;
            };
            if validate_tenant_name(&name).is_err() {
                continue; // includes the ".quarantine" pen
            }
            match self.load_tenant(&name) {
                Ok(recovered) => report.recovered.push(recovered),
                Err(reason) => {
                    // Quarantine is best-effort: a rename failure must
                    // not take the boot down with it.
                    let penned = self.quarantine(&name).is_ok();
                    let suffix = if penned { "" } else { " (left in place)" };
                    report.lost.push((name, format!("{reason}{suffix}")));
                }
            }
        }
        report.recovered.sort_by(|a, b| a.name.cmp(&b.name));
        report.lost.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facade::SummaryKind;
    use hh_core::{MergeableSummary, StreamSummary};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hh-server-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> TenantSpec {
        TenantSpec {
            kind: SummaryKind::SpaceSaving,
            shards: 2,
            m: 10_000,
            universe: 1 << 16,
            ..TenantSpec::default()
        }
    }

    fn bank(spec: &TenantSpec, feed: u64) -> (Vec<DynSummary>, BankSnapshot) {
        let mut shards = spec.build_bank().unwrap();
        for (j, s) in shards.iter_mut().enumerate() {
            s.insert_batch(&vec![feed + j as u64; 100]);
        }
        let bundle = BankSnapshot {
            shards: shards.iter().map(MergeableSummary::to_bytes).collect(),
            hwms: vec![feed; shards.len()],
            dedup: vec![(
                9,
                DedupEntry {
                    req_seq: 3,
                    accepted: 100,
                    wal_seq: feed,
                },
            )],
        };
        (shards, bundle)
    }

    #[test]
    fn save_then_boot_restores_bit_identical_banks_and_marks() {
        let root = tmpdir("roundtrip");
        let store = Store::open(&root).unwrap();
        let spec = spec();
        let (shards, bundle) = bank(&spec, 7);
        store.save_tenant("alpha", &spec, &bundle).unwrap();
        let report = store.load_all().unwrap();
        assert!(report.lost.is_empty(), "{:?}", report.lost);
        assert_eq!(report.recovered.len(), 1);
        let back = &report.recovered[0];
        assert_eq!(back.name, "alpha");
        assert_eq!(back.spec, spec);
        assert_eq!(back.hwms, bundle.hwms);
        assert_eq!(back.dedup, bundle.dedup);
        for (restored, original) in back.shards.iter().zip(&shards) {
            assert_eq!(restored.to_bytes(), original.to_bytes());
        }
        // The verified bytes come back too, equal to a fresh encode.
        for (bytes, restored) in back.shard_bytes.iter().zip(&back.shards) {
            assert_eq!(bytes[..], restored.to_bytes());
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bundle_and_spec_bytes_are_pinned() {
        // The `fnv1a64x4` of a two-shard bundle and of its spec file: a
        // change that moves one stored byte fails here, not at boot.
        let (_, bundle) = bank(&spec(), 7);
        let digests = [
            hh_space::fnv1a64x4(&snapshot::encode(BANK_TAG, &bundle)),
            hh_space::fnv1a64x4(&snapshot::encode(SPEC_TAG, &spec())),
        ];
        assert_eq!(
            digests,
            [0xA9C6_A43A_18B1_510B, 0x7476_7E80_BFE9_DDE5],
            "stored bytes moved"
        );
    }

    #[test]
    fn save_bank_rewrites_the_bundle_and_leaves_the_spec_alone() {
        use std::os::unix::fs::MetadataExt as _;
        let root = tmpdir("bank-only");
        let store = Store::open(&root).unwrap();
        let spec = spec();
        let (_, first) = bank(&spec, 1);
        store.save_tenant("t", &spec, &first).unwrap();
        let spec_file = root.join("t").join("spec.hhs");
        let ino = fs::metadata(&spec_file).unwrap().ino();
        let (_, second) = bank(&spec, 2);
        store.save_bank("t", &second).unwrap();
        assert_eq!(fs::metadata(&spec_file).unwrap().ino(), ino);
        let report = store.load_all().unwrap();
        assert_eq!(report.recovered[0].hwms, second.hwms);
        // A bundle for a tenant that was never created has nowhere to go.
        assert!(store.save_bank("ghost", &second).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_bundle_quarantines_the_tenant_and_spares_the_rest() {
        let root = tmpdir("corrupt");
        let store = Store::open(&root).unwrap();
        let spec = spec();
        let (_, bundle) = bank(&spec, 1);
        store.save_tenant("good", &spec, &bundle).unwrap();
        store.save_tenant("bad", &spec, &bundle).unwrap();
        // Flip one byte in the middle of bad's bundle.
        let victim = root.join("bad").join("bank.hhs");
        let mut buf = fs::read(&victim).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        fs::write(&victim, &buf).unwrap();

        let report = store.load_all().unwrap();
        assert_eq!(report.recovered.len(), 1);
        assert_eq!(report.recovered[0].name, "good");
        assert_eq!(report.lost.len(), 1);
        assert_eq!(report.lost[0].0, "bad");
        assert!(
            root.join(QUARANTINE_DIR).join("bad").exists(),
            "forensics not preserved"
        );
        assert!(!root.join("bad").exists(), "corrupt tenant left live");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoints_under_the_previous_tags_are_quarantined_by_tag() {
        // What the build before the digest's folded lane step left on
        // disk: the same files under the v1 tags, their trailers signed
        // by the retired digest (here: simply stale).
        let root = tmpdir("previous-tags");
        let store = Store::open(&root).unwrap();
        let spec = spec();
        let (_, bundle) = bank(&spec, 5);
        store.save_tenant("old", &spec, &bundle).unwrap();
        for (file, tag) in [("spec.hhs", SPEC_TAG), ("bank.hhs", BANK_TAG)] {
            let path = root.join("old").join(file);
            let mut buf = fs::read(&path).unwrap();
            let at = buf
                .windows(tag.len())
                .position(|w| w == tag.as_bytes())
                .unwrap();
            buf[at + tag.len() - 1] = b'1';
            fs::write(&path, &buf).unwrap();
        }
        let report = store.load_all().unwrap();
        assert!(report.recovered.is_empty());
        assert_eq!(report.lost.len(), 1);
        let reason = &report.lost[0].1;
        assert!(
            reason.contains("tag mismatch") && reason.contains("hh.server.spec.v1"),
            "{reason}"
        );
        assert!(root
            .join(QUARANTINE_DIR)
            .join("old")
            .join("bank.hhs")
            .exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn algo2_shard_under_the_retired_dense_tag_quarantines_only_its_tenant() {
        // What the build before sparse T3 rows left on disk: an Algo2
        // shard behind `hh.algo2.v4`, signed with a valid trailer. No
        // reader for it remains, so its tenant is penned by tag.
        let root = tmpdir("algo2-v4");
        let store = Store::open(&root).unwrap();
        let a2 = TenantSpec {
            kind: SummaryKind::Algo2,
            ..spec()
        };
        let (_, healthy) = bank(&a2, 3);
        let (_, mut retired) = bank(&a2, 4);
        let shard = &mut retired.shards[1];
        let (new, old) = (b"hh.algo2.v5", b"hh.algo2.v4");
        assert_eq!(&shard[8..8 + new.len()], new);
        shard[8..8 + old.len()].copy_from_slice(old);
        let body = shard.len() - 8;
        let digest = hh_space::fnv1a64x4(&shard[..body]);
        shard[body..].copy_from_slice(&digest.to_le_bytes());
        let (_, plain) = bank(&spec(), 5);
        store.save_tenant("old", &a2, &retired).unwrap();
        store.save_tenant("fresh", &a2, &healthy).unwrap();
        store.save_tenant("plain", &spec(), &plain).unwrap();

        let report = store.load_all().unwrap();
        let names: Vec<&str> = report.recovered.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["fresh", "plain"]);
        assert_eq!(report.lost.len(), 1);
        let (name, reason) = &report.lost[0];
        assert_eq!(name, "old");
        assert!(
            reason.contains("shard 1") && reason.contains("hh.algo2.v4"),
            "{reason}"
        );
        assert!(root.join(QUARANTINE_DIR).join("old").exists());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncated_spec_and_missing_bundle_are_both_fatal_for_the_tenant() {
        let root = tmpdir("partial");
        let store = Store::open(&root).unwrap();
        let spec = spec();
        let (_, bundle) = bank(&spec, 2);
        store.save_tenant("t1", &spec, &bundle).unwrap();
        store.save_tenant("t2", &spec, &bundle).unwrap();
        let spec_file = root.join("t1").join("spec.hhs");
        let full = fs::read(&spec_file).unwrap();
        fs::write(&spec_file, &full[..full.len() / 2]).unwrap();
        fs::remove_file(root.join("t2").join("bank.hhs")).unwrap();

        let report = store.load_all().unwrap();
        assert!(report.recovered.is_empty());
        assert_eq!(report.lost.len(), 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bundle_that_contradicts_the_spec_is_rejected() {
        let root = tmpdir("mismatch");
        let store = Store::open(&root).unwrap();
        let spec = spec();
        let (_, mut bundle) = bank(&spec, 4);
        bundle.shards.pop();
        bundle.hwms.pop();
        store.save_tenant("t", &spec, &bundle).unwrap();
        let report = store.load_all().unwrap();
        assert!(report.recovered.is_empty());
        assert_eq!(report.lost.len(), 1);
        assert!(
            report.lost[0].1.contains("holds 1 shards"),
            "{:?}",
            report.lost
        );
        let _ = fs::remove_dir_all(&root);
    }
}
