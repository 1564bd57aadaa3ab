//! Diffs two BENCH_N.json files (the mini-criterion records emitted by
//! `scripts/bench.sh`) and prints per-benchmark speedup or regression.
//!
//! Usage: `bench_compare [old.json new.json] [--control control.json]`
//! With no arguments, compares the two highest-numbered `BENCH_<N>.json`
//! files in the current directory (the benchmark-trajectory convention:
//! each perf PR appends the next `BENCH_N`).
//!
//! Exit code is 1 if any benchmark regressed by more than 10% — the
//! budget the repo's perf acceptance criteria allow — so CI or a
//! pre-merge check can gate on it.
//!
//! **What counts as a regression.** Records are snapshots from
//! whatever host recorded them, and the trajectory hosts are shared
//! single-vCPU boxes where scheduler contention inflates individual
//! samples by 2–10× (steal time only ever *adds* latency). The mean is
//! therefore contaminated noise-first, while the best-of-N sample is
//! the contention-robust floor — a real code slowdown shifts the floor
//! and the mean together, noise shifts only the mean. The gate flags a
//! benchmark only when **both** the mean ratio and the best ratio
//! exceed the 10% budget; the printed table shows both so a
//! mean-only drift is still visible as `noisy`.
//!
//! Ratios alone are also not enough at the bottom of the time scale:
//! consecutive records can come from different host steppings, and on
//! a sub-microsecond, allocation-bound benchmark the 10% budget is a
//! few tens of nanoseconds — smaller than the host-to-host variance of
//! a single malloc/free pair or a frequency-scaling step. A flagged
//! benchmark is therefore tolerated as `sub-floor` when the slowdown
//! is *both* small in absolute terms (best-of-N delta under 0.5 µs)
//! *and* small as a multiple (best at most 3× the old best) — host
//! constants drift by fractions, not multiples, so a 10 ns cached read
//! regressing to 500 ns still fails even though its absolute delta is
//! tiny, while a 900 ns alloc-bound roundtrip drifting by 200 ns does
//! not.
//!
//! Benchmarks (or whole groups) that exist only in the newer record are
//! *tolerated*: they print as `new` and never regress — a perf PR that
//! adds a bench group must not have to backfill history. Individual
//! benchmarks present only in the older record print as `removed`
//! without failing (ids get renamed), **but a whole gated group
//! disappearing fails the gate**: the trajectory groups
//! (`update_time`, `batch_update_time`, `sharded_throughput`,
//! `thread_scaling`, `query_time`, `merge`, `serialize`, `hot_query`,
//! `mixed_read_write`) are the repo's perf acceptance surface, and a
//! record that silently drops one would let any regression in it
//! through unmeasured.
//!
//! **Host metadata.** Records may carry `{"group": "_meta", "id": key,
//! "value": v}` lines (the mini-criterion `record_metadata` API); they
//! are facts about the recording host, not measurements, and never
//! diff as benchmarks. One is load-bearing: when both files record
//! `host_cores` and the values differ, the *scaling* groups
//! (`sharded_throughput`, `thread_scaling`) are excluded from the
//! regression check and printed as `skipped` — a 4-shard rate from a
//! 4-core box against one from a 1-core box measures the hardware, not
//! the code. The groups must still exist (the missing-group rule keeps
//! applying); only their ratios are ignored.
//!
//! **Control runs (`--control`).** Core count is the coarsest host fact;
//! the same box also drifts in plain scalar speed between recording
//! days (thermal and frequency state, co-tenant steal, microcode), and
//! a ratio against a number recorded on a *faster day* charges that
//! drift to the code under test. The A/A answer: re-run the **old
//! committed code** on the *new* host in the same session that records
//! the new file, and pass that record as `--control control.json`.
//! For every benchmark the control measures, the baseline side of the
//! comparison becomes the control's numbers — old code and new code
//! are then measured by the same host in the same state, which is the
//! only subtraction that isolates the code change. Re-based rows are
//! marked `*` in the verdict column; benchmarks absent from the
//! control keep their original baseline. The control is reproducible
//! by construction: it is generated from the committed baseline tree
//! (`git worktree add <dir> <baseline-rev>` and `scripts/bench.sh`
//! there), so a reviewer can regenerate it and check both directions —
//! the control must track the old record up to host drift, and the new
//! record up to the claimed code delta. A control committed as
//! `BENCH_<N>_CONTROL.json` next to `BENCH_<N>.json` is picked up
//! automatically whenever `BENCH_<N>.json` is the newer side (the
//! no-argument CI invocation included); `--control` overrides.

use std::process::ExitCode;

/// One record of the flat JSON array `scripts/bench.sh` writes.
#[derive(Debug, Clone, PartialEq)]
struct Record {
    group: String,
    id: String,
    mean_ns: f64,
    best_ns: f64,
}

/// Pulls `"key": <string>` out of a JSON object line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Pulls `"key": <number>` out of a JSON object line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = line[line.find(&tag)? + tag.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One file's contents: benchmark records plus host-metadata facts.
struct Recorded {
    records: Vec<Record>,
    /// `_meta` lines as `(key, value)`, e.g. `("host_cores", 1.0)`.
    meta: Vec<(String, f64)>,
}

impl Recorded {
    fn meta_value(&self, key: &str) -> Option<f64> {
        self.meta.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Parses the benchmark records out of a `scripts/bench.sh` JSON file.
/// The format is one object per line inside a flat array — a shape this
/// repo controls — so a line-oriented field scan is exact and needs no
/// JSON parser. `best_ns` falls back to
/// `mean_ns` for hand-built records that omit it. Lines in the `_meta`
/// group are host facts, split out instead of diffed.
fn parse(path: &str) -> Result<Recorded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Vec::new();
    let mut meta = Vec::new();
    for line in text.lines() {
        if !line.trim_start().starts_with('{') {
            continue;
        }
        let (group, id) = match (str_field(line, "group"), str_field(line, "id")) {
            (Some(g), Some(i)) => (g, i),
            _ => return Err(format!("{path}: malformed record: {line}")),
        };
        if group == "_meta" {
            let value = num_field(line, "value")
                .ok_or_else(|| format!("{path}: malformed metadata: {line}"))?;
            meta.push((id, value));
            continue;
        }
        let mean_ns = num_field(line, "mean_ns")
            .ok_or_else(|| format!("{path}: malformed record: {line}"))?;
        let best_ns = num_field(line, "best_ns").unwrap_or(mean_ns);
        records.push(Record {
            group,
            id,
            mean_ns,
            best_ns,
        });
    }
    if records.is_empty() {
        return Err(format!("{path}: no benchmark records"));
    }
    Ok(Recorded { records, meta })
}

/// Finds the two highest-numbered `BENCH_<N>.json` files in `.`.
fn latest_pair() -> Option<(String, String)> {
    let mut numbered: Vec<(u64, String)> = std::fs::read_dir(".")
        .ok()?
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            let n: u64 = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((n, name))
        })
        .collect();
    numbered.sort_unstable();
    match numbered.len() {
        0 | 1 => None,
        n => Some((numbered[n - 2].1.clone(), numbered[n - 1].1.clone())),
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--control <file>` may ride along with either positional form.
    let control_path = match args.iter().position(|a| a == "--control") {
        Some(i) if i + 1 < args.len() => {
            let path = args.remove(i + 1);
            args.remove(i);
            Some(path)
        }
        Some(_) => {
            eprintln!("usage: bench_compare [old.json new.json] [--control control.json]");
            return ExitCode::FAILURE;
        }
        None => None,
    };
    let (old_path, new_path) = match args.as_slice() {
        [a, b] => (a.clone(), b.clone()),
        [] => match latest_pair() {
            Some(pair) => pair,
            None => {
                eprintln!("bench_compare: need two BENCH_N.json files (or pass paths)");
                return ExitCode::FAILURE;
            }
        },
        _ => {
            eprintln!("usage: bench_compare [old.json new.json] [--control control.json]");
            return ExitCode::FAILURE;
        }
    };
    // A control committed next to the newer record is part of it:
    // `BENCH_6.json` picks up `BENCH_6_CONTROL.json` automatically, so
    // the no-argument CI invocation applies it without plumbing.
    let control_path = control_path.or_else(|| {
        let candidate = format!("{}_CONTROL.json", new_path.strip_suffix(".json")?);
        std::fs::metadata(&candidate).ok().map(|_| candidate)
    });
    let (old, new) = match (parse(&old_path), parse(&new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let control: Vec<Record> = match &control_path {
        Some(p) => match parse(p) {
            Ok(c) => c.records,
            Err(e) => {
                eprintln!("bench_compare: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Vec::new(),
    };

    // Shard-scaling rates are only comparable between same-shaped
    // hosts; when both records declare a core count and they differ,
    // the scaling groups drop out of the gate (see module docs).
    let cores = (old.meta_value("host_cores"), new.meta_value("host_cores"));
    let skip_scaling = matches!(cores, (Some(a), Some(b)) if a != b);

    println!("# {old_path} -> {new_path}\n");
    if let Some(p) = &control_path {
        println!(
            "control run {p}: {} baseline record(s) re-based to this \
             host's A/A measurement (marked *)\n",
            control.len()
        );
    }
    if skip_scaling {
        let (a, b) = (cores.0.unwrap(), cores.1.unwrap());
        println!(
            "host core count changed ({a:.0} -> {b:.0}): scaling groups \
             ({}) compared as `skipped`\n",
            SCALING_GROUPS.join(", ")
        );
    }
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>9} {:>9}  verdict",
        "group", "id", "old mean", "new mean", "mean", "best"
    );
    let diff = diff(&old.records, &new.records, skip_scaling, &control);
    for line in &diff.lines {
        println!("{line}");
    }
    if diff.added > 0 {
        println!(
            "\n{} benchmark(s) have no baseline in {old_path} (tolerated as new)",
            diff.added
        );
    }
    if diff.regressed {
        eprintln!("\nbench_compare: at least one benchmark regressed by more than 10%");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Result of comparing two record sets.
struct Diff {
    lines: Vec<String>,
    regressed: bool,
    /// Benchmarks present only in the newer record (tolerated).
    added: usize,
}

/// The regression budget: fail at more than 10% slower.
const BUDGET: f64 = 1.10;

/// Absolute slowdown floor (ns): a flagged benchmark whose best-of-N
/// delta is under this — and whose best ratio is under
/// [`SUB_FLOOR_MAX_RATIO`] — is tolerated as host-constant drift (see
/// module docs — below this, cross-host allocator/frequency constants
/// swamp the relative budget).
const ABS_FLOOR_NS: f64 = 500.0;

/// The sub-floor tolerance never excuses a slowdown of more than this
/// multiple, however small in absolute terms: host constants drift by
/// fractions, real regressions on nanosecond benches come as multiples.
const SUB_FLOOR_MAX_RATIO: f64 = 3.0;

/// Groups the gate refuses to lose: if one of these exists in the old
/// record, the new record must still measure it (see module docs).
const GATED_GROUPS: [&str; 12] = [
    "update_time",
    "batch_update_time",
    "sharded_throughput",
    "thread_scaling",
    "query_time",
    "merge",
    "serialize",
    "hot_query",
    "mixed_read_write",
    "serve_throughput",
    "dyadic",
    "wal",
];

/// Groups whose ratios measure shard scaling and therefore only compare
/// between hosts with the same core count (see module docs).
const SCALING_GROUPS: [&str; 2] = ["sharded_throughput", "thread_scaling"];

/// Compares `new` against `old` per (group, id). Only benchmarks present
/// in *both* can regress, and only when the mean ratio **and** the
/// best-of-N ratio both blow the budget (see module docs); new and
/// removed ones are reported but never fail the gate. With
/// `skip_scaling`, the [`SCALING_GROUPS`] are printed but exempt from
/// the regression check (cross-host core-count mismatch). Benchmarks
/// that `control` re-measured (old code, new host) compare against the
/// control's numbers instead of `old`'s — in both directions, so a
/// control *faster* than the old record also tightens the gate — and
/// their verdicts carry a `*` (see module docs, "Control runs").
fn diff(old: &[Record], new: &[Record], skip_scaling: bool, control: &[Record]) -> Diff {
    let mut lines = Vec::new();
    let mut regressed = false;
    let mut added = 0usize;
    for n in new {
        let Some(o) = old.iter().find(|o| o.group == n.group && o.id == n.id) else {
            added += 1;
            lines.push(format!(
                "{:<20} {:<18} {:>12} {:>12.0} {:>9} {:>9}  new",
                n.group, n.id, "-", n.mean_ns, "-", "-"
            ));
            continue;
        };
        let rebased = control.iter().find(|c| c.group == n.group && c.id == n.id);
        let o = rebased.unwrap_or(o);
        let mark = if rebased.is_some() { "*" } else { "" };
        if skip_scaling && SCALING_GROUPS.contains(&n.group.as_str()) {
            lines.push(format!(
                "{:<20} {:<18} {:>12.0} {:>12.0} {:>9} {:>9}  skipped",
                n.group, n.id, o.mean_ns, n.mean_ns, "-", "-"
            ));
            continue;
        }
        let mean_speedup = o.mean_ns / n.mean_ns;
        let best_speedup = o.best_ns / n.best_ns;
        let verdict = if mean_speedup < 1.0 / BUDGET && best_speedup < 1.0 / BUDGET {
            let small_delta = n.best_ns - o.best_ns <= ABS_FLOOR_NS;
            let small_ratio = n.best_ns <= SUB_FLOOR_MAX_RATIO * o.best_ns;
            if small_delta && small_ratio {
                "sub-floor"
            } else {
                regressed = true;
                "REGRESSION"
            }
        } else if mean_speedup < 1.0 / BUDGET || best_speedup < 1.0 / BUDGET {
            "noisy"
        } else if mean_speedup > BUDGET {
            "faster"
        } else {
            "flat"
        };
        lines.push(format!(
            "{:<20} {:<18} {:>12.0} {:>12.0} {:>8.2}x {:>8.2}x  {verdict}{mark}",
            n.group, n.id, o.mean_ns, n.mean_ns, mean_speedup, best_speedup
        ));
    }
    for o in old {
        if !new.iter().any(|n| n.group == o.group && n.id == o.id) {
            lines.push(format!(
                "{:<20} {:<18} {:>12.0} {:>12} {:>9} {:>9}  removed",
                o.group, o.id, o.mean_ns, "-", "-", "-"
            ));
        }
    }
    // A gated group measured before but absent now is a gate failure:
    // the perf surface shrank, which is how regressions go unmeasured.
    for g in GATED_GROUPS {
        if old.iter().any(|o| o.group == g) && !new.iter().any(|n| n.group == g) {
            regressed = true;
            lines.push(format!(
                "{g:<20} {:<18} {:>12} {:>12} {:>9} {:>9}  GROUP MISSING",
                "(whole group)", "-", "-", "-", "-"
            ));
        }
    }
    Diff {
        lines,
        regressed,
        added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_lines() {
        let line = r#"  {"group": "update_time", "id": "algo2_optimal", "mean_ns": 57523745.3, "best_ns": 1.0, "samples": 3, "throughput_kind": "elements", "throughput": 2097152},"#;
        assert_eq!(str_field(line, "group").unwrap(), "update_time");
        assert_eq!(str_field(line, "id").unwrap(), "algo2_optimal");
        assert_eq!(num_field(line, "mean_ns").unwrap(), 57523745.3);
        assert_eq!(num_field(line, "best_ns").unwrap(), 1.0);
    }

    #[test]
    fn missing_fields_are_detected() {
        assert_eq!(str_field("{}", "group"), None);
        assert_eq!(num_field(r#"{"mean_ns": }"#, "mean_ns"), None);
    }

    fn rec(group: &str, id: &str, mean_ns: f64, best_ns: f64) -> Record {
        Record {
            group: group.into(),
            id: id.into(),
            mean_ns,
            best_ns,
        }
    }

    #[test]
    fn new_groups_are_tolerated_not_regressions() {
        // A record whose group exists only in the newer file must be
        // reported as `new` and must not trip the regression gate.
        let old = vec![rec("update_time", "algo2", 100.0, 95.0)];
        let new = vec![
            rec("update_time", "algo2", 101.0, 96.0),
            rec("batch_update_time", "algo2", 55.0, 50.0),
            rec("sharded_throughput", "algo2_shards4", 30.0, 28.0),
        ];
        let d = diff(&old, &new, false, &[]);
        assert!(!d.regressed);
        assert_eq!(d.added, 2);
        assert!(d.lines.iter().any(|l| l.contains("new")));
    }

    #[test]
    fn regression_requires_mean_and_best_to_agree() {
        // Nanosecond-scale ratios alone never fail (sub-floor rule);
        // use microsecond magnitudes so the absolute floor is cleared.
        let old = vec![rec("g", "x", 100_000.0, 95_000.0)];
        // Mean blew the budget but the best sample held: contention
        // noise, not a code slowdown — reported as `noisy`, gate green.
        let noisy = vec![rec("g", "x", 130_000.0, 97_000.0)];
        let d = diff(&old, &noisy, false, &[]);
        assert!(!d.regressed);
        assert!(d.lines.iter().any(|l| l.contains("noisy")));
        // Mean and best both slowed: a real regression.
        let slow = vec![rec("g", "x", 130_000.0, 120_000.0)];
        assert!(diff(&old, &slow, false, &[]).regressed);
        // Both within budget: flat.
        let ok = vec![rec("g", "x", 109_000.0, 104_000.0)];
        assert!(!diff(&old, &ok, false, &[]).regressed);
    }

    #[test]
    fn nanosecond_ratio_drift_is_sub_floor_not_regression() {
        // A 900 ns bench slowing by 200 ns blows the 10% budget on both
        // statistics, but 200 ns is below the cross-host resolution
        // floor: tolerated, visibly, as `sub-floor`.
        let old = vec![rec("serialize", "tiny", 918.0, 865.0)];
        let drift = vec![rec("serialize", "tiny", 1124.0, 1071.0)];
        let d = diff(&old, &drift, false, &[]);
        assert!(!d.regressed);
        assert!(d.lines.iter().any(|l| l.contains("sub-floor")));
        // The same ratios with real time behind them still fail.
        let old_big = vec![rec("serialize", "big", 918_000.0, 865_000.0)];
        let slow_big = vec![rec("serialize", "big", 1_124_000.0, 1_071_000.0)];
        assert!(diff(&old_big, &slow_big, false, &[]).regressed);
        // And a tiny absolute delta never excuses a multiple-scale
        // slowdown: a 10 ns cached read regressing to 480 ns (well
        // under the absolute floor) is a 48x regression, not drift.
        let old_ns = vec![rec("hot_query", "cached", 12.0, 10.0)];
        let blown_ns = vec![rec("hot_query", "cached", 500.0, 480.0)];
        assert!(diff(&old_ns, &blown_ns, false, &[]).regressed);
        // Within 3x and under the floor: tolerated (host constant).
        let wobble_ns = vec![rec("hot_query", "cached", 26.0, 24.0)];
        assert!(!diff(&old_ns, &wobble_ns, false, &[]).regressed);
    }

    #[test]
    fn core_count_mismatch_skips_scaling_groups_only() {
        // A genuine 2x slowdown in a scaling group is excused when the
        // recorded core counts differ (the hardware changed) ...
        let old = vec![
            rec("thread_scaling", "algo2_par_shards4", 50_000.0, 48_000.0),
            rec("update_time", "algo2", 100_000.0, 95_000.0),
        ];
        let new = vec![
            rec("thread_scaling", "algo2_par_shards4", 100_000.0, 98_000.0),
            rec("update_time", "algo2", 101_000.0, 96_000.0),
        ];
        let d = diff(&old, &new, true, &[]);
        assert!(!d.regressed);
        assert!(d.lines.iter().any(|l| l.contains("skipped")));
        // ... but the same mismatch never excuses a non-scaling group.
        let new_bad = vec![
            rec("thread_scaling", "algo2_par_shards4", 50_000.0, 48_000.0),
            rec("update_time", "algo2", 200_000.0, 190_000.0),
        ];
        assert!(diff(&old, &new_bad, true, &[]).regressed);
        // And with matching hosts the scaling slowdown counts again.
        assert!(diff(&old, &new, false, &[]).regressed);
    }

    #[test]
    fn control_rebases_baselines_in_both_directions() {
        // The old record was made on a faster day: identical code now
        // runs at 270 µs, and the new code matches that. Without the
        // control the host drift reads as a code regression; with it,
        // the A/A re-measurement becomes the baseline and the row is
        // flat (and marked). A benchmark the control did not re-measure
        // keeps its original baseline.
        let old = vec![
            rec("update_time", "mg", 240_000.0, 220_000.0),
            rec("update_time", "algo2", 100_000.0, 95_000.0),
        ];
        let new = vec![
            rec("update_time", "mg", 275_000.0, 270_000.0),
            rec("update_time", "algo2", 99_000.0, 94_000.0),
        ];
        let control = vec![rec("update_time", "mg", 276_000.0, 271_000.0)];
        assert!(diff(&old, &new, false, &[]).regressed);
        let d = diff(&old, &new, false, &control);
        assert!(!d.regressed);
        assert!(d.lines.iter().any(|l| l.contains("flat*")));
        assert!(d.lines.iter().any(|l| l.contains("276000")));
        // The re-base is not a one-way ratchet: a control *faster* than
        // the old record tightens the gate, so a new-code time that
        // looked flat against a slow old baseline fails against the
        // same code's honest speed on this host.
        let fast_control = vec![rec("update_time", "mg", 180_000.0, 170_000.0)];
        assert!(diff(&old, &new, false, &fast_control).regressed);
    }

    #[test]
    fn meta_lines_parse_as_facts_not_records() {
        let dir = std::env::temp_dir().join("bench_compare_meta_test.json");
        let path = dir.to_str().unwrap();
        std::fs::write(
            path,
            "[\n  {\"group\": \"update_time\", \"id\": \"algo2\", \"mean_ns\": 10.0, \"best_ns\": 9.0, \"samples\": 3, \"throughput_kind\": null, \"throughput\": null},\n  {\"group\": \"_meta\", \"id\": \"host_cores\", \"value\": 4}\n]\n",
        )
        .unwrap();
        let parsed = parse(path).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(parsed.meta_value("host_cores"), Some(4.0));
        assert_eq!(parsed.meta_value("absent"), None);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn removed_benchmarks_are_reported_without_failing() {
        let old = vec![rec("g", "gone", 100.0, 90.0), rec("g", "kept", 100.0, 90.0)];
        let new = vec![rec("g", "kept", 90.0, 85.0)];
        let d = diff(&old, &new, false, &[]);
        assert!(!d.regressed);
        assert!(d.lines.iter().any(|l| l.contains("removed")));
    }

    #[test]
    fn dropping_a_gated_group_fails_the_gate() {
        // Renaming ids inside a gated group is tolerated, but losing the
        // whole group is not — that is how regressions go unmeasured.
        let old = vec![
            rec("query_time", "algo2_n16", 100.0, 90.0),
            rec("update_time", "algo2", 100.0, 90.0),
        ];
        let renamed = vec![
            rec("query_time", "algo2_small", 95.0, 88.0),
            rec("update_time", "algo2", 100.0, 90.0),
        ];
        assert!(!diff(&old, &renamed, false, &[]).regressed);
        let dropped = vec![rec("update_time", "algo2", 100.0, 90.0)];
        let d = diff(&old, &dropped, false, &[]);
        assert!(d.regressed);
        assert!(d.lines.iter().any(|l| l.contains("GROUP MISSING")));
        // Ungated (experimental) groups may come and go freely.
        let old_ungated = vec![rec("scratch", "x", 100.0, 90.0)];
        assert!(!diff(&old_ungated, &dropped, false, &[]).regressed);
    }
}
