//! The workspace benchmark. Runs one workload on the default
//! configuration and prints every metric by name with its unit, ending
//! with a one-line JSON result:
//!
//! ```text
//! perfbench --workload <tune-small|tune-wide|serve-mixed> --seed <n> \
//!           --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that gives the per-layer numbers. See README.md.

mod clock;
mod layers;
mod serve;
mod tune;
mod util;

use std::process::ExitCode;

/// Switches that each make the library run a different program than the
/// one users run by default.
const PROGRAM_SWITCHES: [&str; 8] = [
    "ST_KERNEL",
    "ST_BATCH",
    "ST_INCREMENTAL",
    "ST_PREPACK",
    "ST_NO_MATRIX_CACHE",
    "ST_SIMD_FORCE",
    "ST_FAULT",
    "ST_DRIFT",
];

const WORKLOADS: [&str; 3] = ["tune-small", "tune-wide", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = "perfbench-work".to_string();
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--work-dir" => work_dir = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        work_dir,
    })
}

/// Refuses to measure anything but the default configuration.
fn default_config() -> Result<Vec<String>, String> {
    let set: Vec<&str> = PROGRAM_SWITCHES
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the benchmark measures the default configuration",
            set.join(", ")
        ));
    }
    let kernel = st_linalg::kernel_kind();
    let cfg = layers::cli_config(&st_data::families::census(), 0);
    if kernel != st_linalg::KernelKind::Blocked || !cfg.batched_plane || cfg.threads != 0 {
        return Err(format!(
            "not the default configuration: kernel {}, batched plane {}, threads {}",
            kernel.name(),
            cfg.batched_plane,
            cfg.threads
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(vec![format!(
        "kernel {}, batched plane {}, threads {} (nproc {nproc})",
        kernel.name(),
        cfg.batched_plane,
        cfg.threads
    )])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let config = match default_config() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = format!("{}/{}-{}", args.work_dir, args.workload, std::process::id());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {work}: {e}");
        return ExitCode::from(2);
    }
    let mut sheet = match args.workload.as_str() {
        "tune-small" => tune::run(
            &tune::tune_small(),
            args.seed,
            args.seconds,
            args.trace,
            &work,
        ),
        "tune-wide" => tune::run(
            &tune::tune_wide(),
            args.seed,
            args.seconds,
            args.trace,
            &work,
        ),
        _ => serve::run(args.seed, args.seconds, args.trace, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut notes = vec![format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    )];
    notes.extend(config);
    notes.append(&mut sheet.notes);
    sheet.notes = notes;
    sheet.print();
    if sheet.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
