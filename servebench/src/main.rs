//! `servebench --workload <mult|mix|rpc|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints context lines starting with `#`, then one line per metric, then
//! (as the last line) the JSON result. `--workload all` runs each workload
//! in a child process of its own, one after another.

use hefv_servebench::run::{self, Options};
use hefv_servebench::workload::WORKLOADS;
use std::process::{Command, ExitCode};

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

/// Runs every workload in a child process (so each has its own peak RSS),
/// waiting for each before starting the next.
fn run_all(opts: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return run_all(&opts);
    }
    match run::run(&opts) {
        Ok(report) => {
            println!(
                "# servebench workload={} seed={} seconds={} trace={}",
                opts.workload, opts.seed, opts.seconds, opts.trace as u8
            );
            for note in &report.notes {
                println!("# {note}");
            }
            for m in &report.metrics {
                println!("# {:<26} {:>14.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", run::json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
