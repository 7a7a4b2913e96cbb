//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--fast] <experiment>...
//! repro all            # everything
//! repro table1 fig3 table2 table3 fig4 table4 fig5 analysts table5 \
//!       falsepos codesize resilience guided brute ablation population service
//! ```
//!
//! An unknown experiment name exits 2, listing the valid names, before
//! any experiment runs.
//!
//! `--fast` scales budgets down (~10×) for a quick end-to-end pass; the
//! default budgets match the paper's (hour-long fuzzing runs, 50 user
//! sessions, 20-hour analysts — all in *virtual* time, so the default run
//! still completes in minutes of wall-clock).
//!
//! Every fan-out experiment runs on the deterministic fleet engine: set
//! `BOMBDROID_THREADS=N` to pick the worker count (default: all CPUs).
//! Output is bit-identical for any `N`; protection artifacts are shared
//! across experiments through the harness cache, so `all` protects each
//! flagship once.
//!
//! `BOMBDROID_OBS` controls the observability layer (`bombdroid-obs`):
//! `full` (default) prints a metrics summary and writes
//! `target/repro_output/metrics.json` and `flight.json`; `off` disables
//! recording. Per-experiment progress and the metrics summary go to
//! stderr: stdout carries only the experiment tables and stays
//! bit-identical for any thread count.

use bombdroid_bench::experiments as ex;
use bombdroid_bench::print::{f1, pct, table};
use bombdroid_core::ProtectConfig;
use bombdroid_obs as obs;
use std::time::Instant;

struct Budgets {
    profiling_events: u64,
    table1_apps: usize,
    table3_runs: usize,
    table3_cap_min: u64,
    fuzz_minutes: u64,
    analyst_hours: u64,
    falsepos_minutes: u64,
    resilience_apps: usize,
    brute_budget: u64,
    guided_shards: usize,
    guided_execs_per_shard: u64,
    guided_crack_budget: u64,
    population_scales: Vec<usize>,
    population_days: u32,
}

impl Budgets {
    fn paper() -> Self {
        Budgets {
            profiling_events: 10_000,
            table1_apps: usize::MAX, // all 963
            table3_runs: 50,
            table3_cap_min: 60,
            fuzz_minutes: 60,
            analyst_hours: 20,
            falsepos_minutes: 600, // ten hours
            resilience_apps: 2,
            brute_budget: 1_000_000,
            guided_shards: 8,
            guided_execs_per_shard: 240,
            guided_crack_budget: 20_000,
            population_scales: vec![10_000, 100_000, 1_000_000],
            population_days: 14,
        }
    }

    fn fast() -> Self {
        Budgets {
            profiling_events: 1_000,
            table1_apps: 6,
            table3_runs: 8,
            table3_cap_min: 60,
            fuzz_minutes: 10,
            analyst_hours: 2,
            falsepos_minutes: 30,
            resilience_apps: 1,
            brute_budget: 100_000,
            guided_shards: 4,
            guided_execs_per_shard: 60,
            guided_crack_budget: 5_000,
            population_scales: vec![1_000, 10_000],
            population_days: 14,
        }
    }

    fn config(&self) -> ProtectConfig {
        ProtectConfig {
            profiling_events: self.profiling_events,
            ..ProtectConfig::default()
        }
    }
}

/// An experiment's command-line name and the function that runs it.
type Experiment = (&'static str, fn(&Budgets));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", table1),
    ("fig3", |_| fig3()),
    ("table2", table2),
    ("table3", table3),
    ("fig4", fig4),
    ("table4", table4),
    ("fig5", fig5),
    ("analysts", analysts),
    ("table5", table5),
    ("falsepos", falsepos),
    ("codesize", codesize),
    ("resilience", resilience),
    ("guided", guided),
    ("brute", brute),
    ("ablation", |_| ablation()),
    ("population", population),
    ("service", service),
];

fn main() {
    // A crash mid-run still leaves the flight recorder's last events on
    // disk (target/repro_output/flight.json) for post-mortem triage.
    obs::flight::install_panic_hook();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let budgets = if fast {
        Budgets::fast()
    } else {
        Budgets::paper()
    };
    let mut wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if wanted.is_empty() || wanted.contains(&"all") {
        wanted = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    }
    // Resolve every name before anything runs, so a typo fails at once
    // instead of after the experiments before it.
    let mut runs = Vec::with_capacity(wanted.len());
    for w in wanted {
        match EXPERIMENTS.iter().find(|(name, _)| *name == w) {
            Some(&experiment) => runs.push(experiment),
            None => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                eprintln!("unknown experiment: {w}; one of: all {}", names.join(" "));
                std::process::exit(2);
            }
        }
    }
    let total = runs.len();
    for (i, (w, run)) in runs.into_iter().enumerate() {
        eprintln!("[{}/{total}] {w} ...", i + 1);
        let started = Instant::now();
        let span = obs::span(format!("experiment.{w}"));
        run(&budgets);
        span.end();
        obs::counter_add("repro.experiments", 1);
        eprintln!(
            "[{}/{total}] {w} done in {}",
            i + 1,
            obs::fmt_ns(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
        );
    }
    export_metrics();
}

/// Prints the metrics summary and writes the schema-versioned
/// `target/repro_output/metrics.json` artifact plus the flight ring's
/// `flight.json`, each validated first; an invalid document or a failed
/// write exits 1. The summary goes to **stderr**: it contains wall-clock
/// timings, and stdout must stay bit-identical for any `BOMBDROID_THREADS`
/// value (the fleet determinism contract). In the artifact the
/// nondeterministic subset is confined to the `total_ns` fields.
fn export_metrics() {
    if !obs::enabled() {
        return;
    }
    let rec = obs::global();
    if rec.is_empty() {
        return;
    }
    eprintln!("\n=== metrics (BOMBDROID_OBS) ===\n");
    eprint!("{}", rec.summary());
    write_artifact(
        "metrics",
        "metrics.json",
        &rec.to_json(true),
        obs::validate_metrics,
    );
    // Also dump the flight ring on clean exits so its schema is checked
    // without having to crash the process.
    write_artifact(
        "flight",
        "flight.json",
        &obs::flight::to_json(),
        obs::validate_flight,
    );
}

fn banner(title: &str, paper: &str) {
    println!("\n=== {title} ===");
    println!("paper: {paper}\n");
}

fn table1(b: &Budgets) {
    banner(
        "Table 1 — static characteristics",
        "e.g. Game: 105 apps, 3043 LOC, 95 candidate methods, 56 QCs, 16 env vars",
    );
    let rows = ex::table1(b.table1_apps, b.profiling_events.min(1_000));
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.category.label().to_string(),
                r.apps.to_string(),
                f1(r.avg_loc),
                f1(r.avg_candidate_methods),
                f1(r.avg_existing_qcs),
                f1(r.avg_env_vars),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "Category",
                "# apps",
                "Avg LOC",
                "Avg cand. methods",
                "Avg exist. QCs",
                "Avg env vars"
            ],
            &printable,
        )
    );
}

fn fig3() {
    banner(
        "Fig. 3 — AndroFish variable traces (60 min, 1 sample/min)",
        "dir/width/height take few values; speed/posX/posY wander widely",
    );
    let data = ex::fig3(60);
    for (name, series) in &data.series {
        let values: Vec<String> = series
            .iter()
            .step_by(6)
            .map(|(_, v)| v.to_string())
            .collect();
        println!("{name:>7}: {}", values.join(" "));
    }
    println!();
    let printable: Vec<Vec<String>> = data
        .unique_counts
        .iter()
        .map(|(n, u)| vec![n.clone(), u.to_string()])
        .collect();
    print!("{}", table(&["Variable", "Unique values"], &printable));
}

fn table2(b: &Budgets) {
    banner(
        "Table 2 — injected logic bombs",
        "AndroFish 67 (36+31), Angulo 43 (25+18), …, BRouter 263 (144+119)",
    );
    let rows = ex::table2(b.config());
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.total.to_string(),
                r.existing.to_string(),
                r.artificial.to_string(),
                r.bogus.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "App",
                "# bombs",
                "# existing QC",
                "# artificial QC",
                "(+bogus)"
            ],
            &printable
        )
    );
}

fn table3(b: &Budgets) {
    banner(
        "Table 3 — time to first triggered bomb (user sessions)",
        "min 8–26 s, max 213–778 s, avg 75–164 s, success 50/50",
    );
    let rows = ex::table3(b.config(), b.table3_runs, b.table3_cap_min);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                f1(r.min_s),
                f1(r.max_s),
                f1(r.avg_s),
                format!("{}/{}", r.successes, r.runs),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &["App", "Min (s)", "Max (s)", "Avg (s)", "Success"],
            &printable
        )
    );
}

fn fig4(b: &Budgets) {
    banner(
        "Fig. 4 — strength of outer trigger conditions",
        "existing QCs: many weak; artificial QCs: all medium/strong",
    );
    let rows = ex::fig4(b.config());
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                format!("{}/{}/{}", r.existing.0, r.existing.1, r.existing.2),
                format!("{}/{}/{}", r.artificial.0, r.artificial.1, r.artificial.2),
            ]
        })
        .collect();
    print!(
        "{}",
        table(&["App", "Existing W/M/S", "Artificial W/M/S"], &printable)
    );
}

fn table4(b: &Budgets) {
    banner(
        "Table 4 — % outer trigger conditions satisfied in 1 h",
        "Monkey 19–32%, PUMA 22–36%, AndroidHooker 21–34%, Dynodroid 27–39% (best)",
    );
    let rows = ex::table4(b.config(), b.fuzz_minutes);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.app.clone()];
            row.extend(r.tools.iter().map(|(_, p)| f1(*p)));
            row
        })
        .collect();
    print!(
        "{}",
        table(&["App", "Monkey", "PUMA", "AH", "Dynodroid"], &printable)
    );
}

fn fig5(b: &Budgets) {
    banner(
        "Fig. 5 — % bombs triggered by Dynodroid over one hour",
        "flattens by ~35 min; at most 6.4% of bombs triggered",
    );
    let series = ex::fig5(b.config(), b.fuzz_minutes);
    for s in &series {
        let pts: Vec<String> = s
            .points
            .iter()
            .step_by((s.points.len() / 10).max(1))
            .map(|(m, p)| format!("{m}m:{p:.1}%"))
            .collect();
        let last = s.points.last().map(|(_, p)| *p).unwrap_or(0.0);
        println!(
            "{:>14} ({:>3} bombs): {}  → final {:.1}%",
            s.app,
            s.total_bombs,
            pts.join(" "),
            last
        );
    }
}

fn analysts(b: &Budgets) {
    banner(
        "§8.3.2 — human analysts (guided, env mutation)",
        "at most 9.3% of bombs triggered in 20 h",
    );
    let rows = ex::analysts(b.config(), b.analyst_hours, 30);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                format!("{}/{}", r.triggered, r.total),
                pct(r.pct),
            ]
        })
        .collect();
    print!("{}", table(&["App", "Triggered", "%"], &printable));
}

fn table5(b: &Budgets) {
    banner(
        "Table 5 — execution-time overhead",
        "1.4–2.6% across the eight apps",
    );
    let rows = ex::table5(
        b.config(),
        20_000.min(if b.table1_apps == 6 { 3_000 } else { 20_000 }),
    );
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.ta_instr.to_string(),
                r.tb_instr.to_string(),
                pct(r.overhead_pct),
            ]
        })
        .collect();
    print!(
        "{}",
        table(&["App", "Ta (instr)", "Tb (instr)", "Overhead"], &printable)
    );
}

fn falsepos(b: &Budgets) {
    banner(
        "§8.4 — false positives",
        "10 h of random events on legitimate copies: zero responses",
    );
    let rows = ex::false_positives(b.config(), b.falsepos_minutes);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.events.to_string(),
                r.responses.to_string(),
                r.reports.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(&["App", "Events", "Responses", "Reports"], &printable)
    );
}

fn codesize(b: &Budgets) {
    banner("§8.4 — code size increase", "8–13%, average 9.7%");
    let rows = ex::code_size(b.config());
    let avg = rows.iter().map(|r| r.increase_pct).sum::<f64>() / rows.len().max(1) as f64;
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.original.to_string(),
                r.protected.to_string(),
                pct(r.increase_pct),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &["App", "Original (B)", "Protected (B)", "Increase"],
            &printable
        )
    );
    println!("average increase: {avg:.1}%");
}

fn resilience(b: &Budgets) {
    banner(
        "§5 — resilience matrix (attack × protection)",
        "BombDroid survives everything; naive and SSN fall",
    );
    for (app, report) in ex::resilience_reports(b.resilience_apps) {
        println!("--- {app} ---");
        let printable: Vec<Vec<String>> = report
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.protection.to_string(),
                    c.attack.to_string(),
                    if c.defeated { "DEFEATED" } else { "resists" }.to_string(),
                    c.note.clone(),
                ]
            })
            .collect();
        print!(
            "{}",
            table(&["Protection", "Attack", "Verdict", "Evidence"], &printable)
        );
        let brute = &report.brute.report;
        println!(
            "brute force: {}/{} conditions cracked in {} hash evaluations\n",
            brute.cracked, brute.total, brute.tries
        );
    }
}

fn guided(b: &Budgets) {
    banner(
        "§5/§8.3 extension — coverage-guided greybox fuzzing",
        "bombs found vs exec budget, per protection config (control / default / bogus-dense)",
    );
    let campaign = bombdroid_attacks::GuidedConfig {
        seed: ex::PROTECT_BASE,
        shards: b.guided_shards,
        execs_per_shard: b.guided_execs_per_shard,
        threads: None,
        reset: bombdroid_attacks::ResetMode::SnapshotFork,
        crack_budget: b.guided_crack_budget,
        checkpoints: 6,
        window: 2,
    };
    let rows = ex::guided_curves(&campaign, &ProtectConfig::fast_profile());
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.total_bombs.to_string(),
                format!("{}/{}", r.found, r.validated),
                r.execs.to_string(),
                r.curve
                    .iter()
                    .map(|(e, n)| format!("{e}:{n}"))
                    .collect::<Vec<_>>()
                    .join(" "),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "Config",
                "Bombs",
                "Found/Valid",
                "Execs",
                "Curve (execs:bombs)"
            ],
            &printable
        )
    );
    let json = ex::guided_json(ex::guided::GUIDED_APP, ex::PROTECT_BASE, &rows);
    write_artifact(
        "guided",
        "guided_resilience.json",
        &json,
        ex::validate_guided_json,
    );
}

fn population(b: &Budgets) {
    banner(
        "§4.2/§6 extension — population-scale market validation",
        "measured per-user trigger rates + detection-latency CDF vs closed-form, with kill+resume",
    );
    let (rows, resume) = ex::population_rows(&b.population_scales, b.population_days);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.devices.to_string(),
                r.sessions_run.to_string(),
                if r.taken_down_day < 0 {
                    "survived".to_string()
                } else {
                    format!("day {}", r.taken_down_day)
                },
                format!(
                    "{:.3}/{:.3}",
                    r.weighted_measured_ppm as f64 / 1e6,
                    r.weighted_predicted_ppm as f64 / 1e6
                ),
                r.live_metric_names_max.to_string(),
                r.windows_sealed.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &[
                "Devices",
                "Sessions",
                "Takedown",
                "Rate meas/pred",
                "Live metrics",
                "Windows"
            ],
            &printable
        )
    );
    println!(
        "kill+resume at {} devices (after {} chunks): {}",
        resume.devices,
        resume.killed_after_chunks,
        if resume.identical {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );
    let json = ex::population_json(
        ex::population::POPULATION_APP,
        b.population_days,
        &rows,
        &resume,
    );
    write_artifact(
        "population",
        "population.json",
        &json,
        ex::validate_population_json,
    );
}

fn service(b: &Budgets) {
    banner(
        "ROADMAP item 5 — protect-as-a-service smoke",
        "fixed-seed job mix with duplicates: single-flight cache, admission control, deterministic drain",
    );
    let r = ex::service_smoke(&b.config());
    let printable: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                row.index.to_string(),
                row.app.clone(),
                format!("{:016x}", row.seed),
                if row.cache_hit { "hit" } else { "miss" }.to_string(),
                if row.verified { "ok" } else { "FAIL" }.to_string(),
                row.bombs.to_string(),
                row.dex_digest[..12].to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &["#", "App", "Seed", "Cache", "Verify", "Bombs", "DEX digest"],
            &printable
        )
    );
    // Thread count goes to stderr: stdout stays bit-identical for any
    // BOMBDROID_THREADS (the fleet determinism contract).
    eprintln!("service: drained on {} worker thread(s)", r.threads);
    println!(
        "protects {} | hits {} | shed {} | serial control: {}",
        r.protects,
        r.hits,
        r.shed,
        if r.serial_identical {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );
    let json = ex::service_json(&r);
    write_artifact("service", "service.json", &json, ex::validate_service_json);
}

/// Validates `json` and writes it to `target/repro_output/<file>`. The
/// artifact's validator is its only gate, so a document that fails it, or
/// a write that fails, ends the run with exit status 1.
fn write_artifact(
    experiment: &str,
    file: &str,
    json: &str,
    validate: fn(&str) -> Result<(), String>,
) {
    let dir = std::path::Path::new("target/repro_output");
    let path = dir.join(file);
    let written = validate(json)
        .map_err(|e| format!("refusing to write an invalid {file}: {e}"))
        .and_then(|()| {
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, json))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        });
    match written {
        Ok(()) => eprintln!("{experiment}: wrote {}", path.display()),
        Err(msg) => {
            eprintln!("{experiment}: {msg}");
            std::process::exit(1);
        }
    }
}

fn brute(b: &Budgets) {
    banner(
        "§5.1 — brute-force resistance",
        "weak (bool) conditions crack instantly; int needs 2^32·t; strings resist",
    );
    let rows = ex::brute_force(b.config(), b.brute_budget);
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                r.total.to_string(),
                r.cracked.to_string(),
                r.tries.to_string(),
            ]
        })
        .collect();
    print!(
        "{}",
        table(&["App", "Conditions", "Cracked", "Hash evals"], &printable)
    );
    println!(
        "cost model at 10^6 H/s: 32-bit int ≈ {:.0} s, 16-char string ≈ {:.1e} s",
        bombdroid_attacks::brute::expected_seconds(32, 1e6),
        bombdroid_attacks::brute::expected_seconds(128, 1e6),
    );
}

fn ablation() {
    banner("DESIGN.md ablations", "design choices isolated");
    let report = ex::ablation(30);
    println!("trigger structure (30-min Dynodroid, % bombs triggered):");
    for (name, pct_triggered) in &report.trigger_structure {
        println!("  {name}: {pct_triggered:.1}%");
    }
    println!("alpha sweep (artificial-QC ratio → bombs, code size):");
    for (alpha, bombs, size) in &report.alpha_sweep {
        println!("  α={alpha}: {bombs} bombs, +{size:.1}% code");
    }
    println!("hot-method exclusion (overhead):");
    for (on, pct_overhead) in &report.hot_exclusion {
        println!(
            "  exclusion {}: {pct_overhead:.1}%",
            if *on { "on " } else { "off" }
        );
    }
    println!("weaving vs deletion attack:");
    for (weave, corrupted) in &report.weaving {
        println!(
            "  weaving {}: deletion {}",
            if *weave { "on " } else { "off" },
            if *corrupted {
                "corrupts the app"
            } else {
                "is harmless"
            }
        );
    }
}
