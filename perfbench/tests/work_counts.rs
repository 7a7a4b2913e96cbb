//! Work counts of the traced run repeat exactly: across two runs of the
//! same seed, and across one worker and several.

use bombdroid_perfbench::{host, is_work_count, layer_metric, run, Options, PER_LAYER};

fn counts(workers: usize) -> Vec<(String, f64)> {
    let opts = Options {
        workload: "population_vm".to_string(),
        seed: 3,
        seconds: 1.0,
        trace: true,
        workers,
        inject: None,
    };
    let outcome = run(&opts).expect("known workload");
    assert_eq!(outcome.failed, 0, "{:?}", outcome.notes);
    PER_LAYER
        .iter()
        .filter(|(_, _, unit)| is_work_count(unit))
        .map(|(workload, metric, _)| {
            let name = layer_metric(workload, metric);
            let value = outcome.metrics.get(&name).copied().unwrap_or(f64::NAN);
            (name, value)
        })
        .collect()
}

// One test, so no other test changes the process-wide observability
// mode or `BOMBDROID_THREADS` while it runs. A traced run covers every
// workload.
#[test]
fn work_counts_repeat_across_runs_and_worker_counts() {
    let many = host::nproc().max(2);
    let first = counts(many);
    for workload in bombdroid_perfbench::WORKLOADS {
        assert!(
            first
                .iter()
                .any(|(name, v)| name.starts_with(workload) && *v > 0.0),
            "{workload}: no work counted"
        );
    }
    assert_eq!(first, counts(many), "second run");
    assert_eq!(first, counts(1), "one worker");
}
