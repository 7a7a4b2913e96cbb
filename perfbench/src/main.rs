//! The benchmark's command line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--inject-slowdown LAYER]
//! perfbench reference --workload NAME|all
//! perfbench compare BASE.txt CANDIDATE.txt [--benchmark BENCHMARK.json]
//! perfbench selftest [--layer LAYER] [--seconds S] [--seeds N]
//! ```
//!
//! Run from the repository root, e.g.
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! population_vm --seed 1 --seconds 30 --trace 0`. See `README.md`.

use bombdroid_perfbench::compare::{self, Record};
use bombdroid_perfbench::{fuzz, host, oracle, population, protect, Options, WORKLOADS};
use std::process::ExitCode;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("missing {name}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("reference") => reference(&args),
        Some("compare") => compare_files(&args),
        Some("selftest") => selftest(&args),
        _ => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn options(args: &[String]) -> Result<Options, String> {
    let workload = parsed::<String>(args, "--workload", None)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let trace: u8 = parsed(args, "--trace", Some(0))?;
    let seconds: f64 = parsed(args, "--seconds", Some(30.0))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let inject = flag(args, "--inject-slowdown").map(str::to_string);
    if let Some(layer) = &inject {
        compare::workload_of_layer(layer).ok_or_else(|| cannot_slow(layer))?;
    }
    Ok(Options {
        workload,
        seed: parsed(args, "--seed", Some(1))?,
        seconds,
        trace: trace != 0,
        workers: host::nproc(),
        inject,
    })
}

fn cannot_slow(layer: &str) -> String {
    let layers: Vec<&str> = compare::SLOWABLE.iter().map(|(l, _)| *l).collect();
    format!("cannot slow {layer:?}; one of {layers:?}")
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = options(args)?;
    let outcome = bombdroid_perfbench::run(&opts)?;
    print!("{}", bombdroid_perfbench::render(&opts, &outcome)?);
    Ok(())
}

fn reference(args: &[String]) -> Result<(), String> {
    let which = parsed::<String>(args, "--workload", None)?;
    let workers = host::nproc();
    std::env::set_var("BOMBDROID_THREADS", workers.to_string());
    for workload in WORKLOADS {
        if which != "all" && which != workload {
            continue;
        }
        bombdroid_obs::set_mode(bombdroid_obs::ObsMode::Off);
        let lines = match workload {
            protect::NAME => protect::reference_lines(workers),
            fuzz::NAME => fuzz::reference_lines(workers),
            _ => population::reference_lines(workload, workers),
        };
        let header = format!(
            "Pinned outputs of the {workload} pool; regenerate with\n`perfbench reference --workload {workload}` only when the program's output is meant to change."
        );
        let path = oracle::write(workload, &header, &lines).map_err(|e| e.to_string())?;
        eprintln!("perfbench: wrote {} lines to {path}", lines.len());
    }
    Ok(())
}

fn read_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    compare::parse_records(&text)
}

fn compare_files(args: &[String]) -> Result<(), String> {
    let (Some(base), Some(cand)) = (args.get(1), args.get(2)) else {
        return Err("usage: perfbench compare BASE CANDIDATE [--benchmark BENCHMARK.json]".into());
    };
    let benchmark = flag(args, "--benchmark").unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
    let bounds = compare::bounds(&text)?;
    let (base, cand) = (read_records(base)?, read_records(cand)?);
    let rows = compare::compare_end_to_end(&base, &cand, &bounds)?;
    print!("{}", compare::render_rows(&rows));
    for workload in WORKLOADS {
        let layers = compare::compare_layers(&base, &cand, workload)?;
        if let Some((layer, b, c)) = layers.first() {
            println!("{workload}: largest self-time growth in {layer} ({b:.3} ms -> {c:.3} ms)");
        }
    }
    if rows.iter().any(|r| r.flagged) {
        return Err("some metric regressed past its bound".into());
    }
    Ok(())
}

/// Runs this executable once and returns its record.
fn spawn(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: Option<&str>,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(layer) = inject {
        cmd.args(["--inject-slowdown", layer]);
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} run failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut records = compare::parse_records(&text)?;
    let record = records.pop().ok_or("run printed no record")?;
    if !record.correct {
        return Err(format!("{workload} seed {seed} reported failed operations"));
    }
    Ok(record)
}

/// The injected-slowdown self-test: slows one layer (20% of its busy
/// time injected) and checks, over the workloads `BENCHMARK.json` lists,
/// that the comparison flags that layer's workload and no other, and
/// that the traced breakdown names the layer.
fn selftest(args: &[String]) -> Result<(), String> {
    let layer = flag(args, "--layer").unwrap_or(population::VM_RUNNER);
    let expected = compare::workload_of_layer(layer).ok_or_else(|| cannot_slow(layer))?;
    let seconds: f64 = parsed(args, "--seconds", Some(10.0))?;
    let seeds: u64 = parsed(args, "--seeds", Some(5))?;
    let benchmark = flag(args, "--benchmark").unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(benchmark).map_err(|e| format!("{benchmark}: {e}"))?;
    let bounds = compare::bounds(&text)?;
    let workloads = compare::listed_workloads(&text)?;

    let (mut base, mut slowed) = (Vec::new(), Vec::new());
    for workload in &workloads {
        for seed in 1..=seeds {
            // Alternate which side runs first.
            let sides = if seed % 2 == 1 {
                [false, true]
            } else {
                [true, false]
            };
            for slow in sides {
                let r = spawn(workload, seed, seconds, false, slow.then_some(layer))?;
                if slow {
                    slowed.push(r)
                } else {
                    base.push(r)
                }
            }
            eprintln!("selftest: {workload} seed {seed} done");
        }
    }
    // A traced run covers every workload's tree.
    for seed in 1..=seeds.min(3) {
        base.push(spawn(expected, seed, seconds, true, None)?);
        slowed.push(spawn(expected, seed, seconds, true, Some(layer))?);
    }
    let rows = compare::compare_end_to_end(&base, &slowed, &bounds)?;
    print!("{}", compare::render_rows(&rows));
    let mut flagged: Vec<&str> = rows
        .iter()
        .filter(|r| r.flagged)
        .map(|r| r.workload.as_str())
        .collect();
    flagged.dedup();
    let layers = compare::compare_layers(&base, &slowed, expected)?;
    let named = layers.first().map(|l| l.0.as_str()).unwrap_or("");
    for (l, b, c) in layers.iter().take(3) {
        println!("{expected}: self time of {l}: {b:.3} ms -> {c:.3} ms");
    }
    let pass = flagged == [expected] && named == layer;
    println!(
        "selftest {}: slowed {layer}; flagged workloads {flagged:?} (expected [{expected:?}]); breakdown names {named:?}",
        if pass { "PASS" } else { "FAIL" }
    );
    if pass {
        Ok(())
    } else {
        Err("self-test failed".into())
    }
}
