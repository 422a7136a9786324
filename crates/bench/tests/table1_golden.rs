//! Golden lockfile for the paper's Table 1: the step counts produced by
//! `table1 all --json` are pinned, field by field, in
//! `tests/golden/table1_steps.json` — in **both** environment modes
//! (the Paper profile's pair-spine `steps`, and `flat_env` in the
//! `steps_indexed` column, named for its single-`acc` access paths).
//!
//! Any change to the compiler, machine, or freeze path that shifts a
//! reduction count fails here with the exact row. If a shift is
//! intentional (a new cost model), regenerate the lockfile with
//! `cargo run --release -p mlbox-bench --bin table1 -- --json` and
//! justify the diff in the commit.

use mlbox::SessionOptions;
use mlbox_bench::table1_rows;

const GOLDEN: &str = include_str!("../../../tests/golden/table1_steps.json");
const GOLDEN_FLAT: &str = include_str!("../../../tests/golden/table1_steps_flat_env.json");

/// Pulls `"key": <u64>` out of a JSON-ish line. Hand-rolled — the
/// workspace carries no JSON dependency, and the lockfile's layout is
/// our own `render_json`'s (one row object per line).
fn field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn label(line: &str) -> Option<&str> {
    let at = line.find("\"label\": \"")? + "\"label\": \"".len();
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

/// The default lockfile's rows as `(label, steps, steps_indexed,
/// emitted)`.
fn golden_rows() -> Vec<(&'static str, u64, u64, u64)> {
    GOLDEN
        .lines()
        .filter(|l| l.contains("\"label\""))
        .map(|l| {
            (
                label(l).expect("label"),
                field(l, "steps").expect("steps"),
                field(l, "steps_indexed").expect("steps_indexed"),
                field(l, "emitted").expect("emitted"),
            )
        })
        .collect()
}

#[test]
fn table1_step_counts_match_the_golden_lockfile() {
    let golden = golden_rows();
    assert_eq!(golden.len(), 10, "Table 1 has ten rows");

    let (rows, stats) = table1_rows(&SessionOptions::paper());
    let (flat_rows, _) = table1_rows(&SessionOptions {
        flat_env: true,
        ..SessionOptions::default()
    });
    assert_eq!(rows.len(), golden.len());
    for ((row, frow), (glabel, gsteps, gindexed, gemitted)) in rows
        .iter()
        .zip(&flat_rows)
        .enumerate()
        .map(|(i, r)| (r, golden[i]))
    {
        assert_eq!(row.label, glabel);
        assert_eq!(
            row.steps, gsteps,
            "`{glabel}`: Paper-profile steps drifted from the lockfile"
        );
        assert_eq!(
            frow.steps, gindexed,
            "`{glabel}`: flat-env steps drifted from the steps_indexed column"
        );
        assert_eq!(
            row.emitted, gemitted,
            "`{glabel}`: emitted count drifted from the lockfile"
        );
    }

    // Freeze-cache counters of the packet-filter session are golden too.
    let cache_line = GOLDEN
        .lines()
        .find(|l| l.contains("freeze_cache"))
        .expect("freeze_cache line");
    assert_eq!(stats.freezes, field(cache_line, "freezes").unwrap());
    assert_eq!(stats.freeze_hits, field(cache_line, "freeze_hits").unwrap());
    assert_eq!(stats.calls, field(cache_line, "calls").unwrap());
    assert_eq!(stats.steps, field(cache_line, "steps").unwrap());
}

#[test]
fn flat_env_table1_step_counts_match_their_own_lockfile_and_equal_indexed() {
    let golden: Vec<(&str, u64, u64)> = GOLDEN_FLAT
        .lines()
        .filter(|l| l.contains("\"label\""))
        .map(|l| {
            (
                label(l).expect("label"),
                field(l, "steps_flat_env").expect("steps_flat_env"),
                field(l, "emitted").expect("emitted"),
            )
        })
        .collect();
    assert_eq!(golden.len(), 10, "Table 1 has ten rows");

    let (flat_rows, _) = table1_rows(&SessionOptions {
        flat_env: true,
        ..SessionOptions::default()
    });
    assert_eq!(flat_rows.len(), golden.len());
    for ((frow, (glabel, gsteps, gemitted)), (_, _, gindexed, _)) in
        flat_rows.iter().zip(golden).zip(golden_rows())
    {
        assert_eq!(frow.label, glabel);
        assert_eq!(
            frow.steps, gsteps,
            "`{glabel}`: flat-env steps drifted from the lockfile"
        );
        assert_eq!(
            frow.emitted, gemitted,
            "`{glabel}`: flat-env emitted count drifted from the lockfile"
        );
        // `table1 --json` renders the flat rows twice; the two
        // lockfiles must agree step for step.
        assert_eq!(
            gsteps, gindexed,
            "`{glabel}`: the flat lockfile diverged from the steps_indexed column"
        );
    }
}
