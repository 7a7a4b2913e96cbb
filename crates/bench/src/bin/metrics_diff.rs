//! Compares two schema-v1 `metrics.json` artifacts and fails on any
//! deterministic drift.
//!
//! ```text
//! metrics_diff <base.json> <candidate.json>
//! ```
//!
//! Validates both inputs against the `bombdroid-obs` schema, then prints
//! a table of changed/added/removed metrics: counter deltas with relative
//! change, histogram count/sum deltas with approximate p50 drift, and
//! timing call/p95 drift (wall-clock, informational only). Exits 1 when
//! any deterministic quantity (a counter value or histogram count)
//! changes at all, or when such a key appears or disappears; exits 2 on
//! usage, read or validation errors; exits 0 otherwise. CI runs this as a
//! hard gate between the committed `scripts/metrics_reference.json` and
//! each fresh smoke run, so a missing instrumentation point or any
//! behaviour change fails until the reference is regenerated.

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.len() != 2 {
        eprintln!("usage: metrics_diff <base.json> <candidate.json>");
        std::process::exit(2);
    }

    let read = |p: &str| -> String {
        match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("metrics_diff: cannot read {p}: {e}");
                std::process::exit(2);
            }
        }
    };
    let base = read(&paths[0]);
    let cand = read(&paths[1]);

    match bombdroid_obs::diff::diff_metrics(&base, &cand) {
        Ok(report) => {
            println!("metrics_diff: {} vs {}", paths[0], paths[1]);
            print!("{}", report.table());
            if report.has_breach() {
                eprintln!(
                    "metrics_diff: {} deterministic metric(s) differ",
                    report.breaches()
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("metrics_diff: {e}");
            std::process::exit(2);
        }
    }
}
