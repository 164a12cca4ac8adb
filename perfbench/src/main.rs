//! The repository's benchmark: the paper's TPC-H queries and the
//! networked server, end to end, with per-layer figures from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload q3-cold|q10-split|chain-sessions --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a run header, one line per metric, and as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! See `perfbench/README.md` for what each metric measures.

mod ops;
mod paper;
mod probes;
mod report;
mod sessions;
mod sys;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: exactly the metrics of the requested list, each with
/// all its digits.
fn result_json(r: &Report, names: &[(&str, &str)]) -> Result<String, String> {
    if r.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let v = r
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        !r.wrong,
        r.attempted,
        r.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One worker per party: the two party threads then match a 2-core
    // machine, and no more threads are busy than there are cores.
    secyan_par::set_threads(1);
    trace::set_enabled(args.trace);
    println!(
        "# header {}",
        sys::header(&args.workload, args.seed, args.seconds, args.trace)
    );
    let run = match args.workload.as_str() {
        "q3-cold" => paper::q3_cold(args.seed, args.seconds, args.trace),
        "q10-split" => paper::q10_split(args.seed, args.seconds, args.trace),
        "chain-sessions" => sessions::chain_sessions(args.seed, args.seconds, args.trace),
        w => Err(format!("unknown workload {w}")),
    };
    let r = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for e in &r.errors {
        println!("# error {e}");
    }
    for (name, unit) in names {
        println!(
            "{name:<30} {:>18.6} {unit}",
            r.metrics.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    println!(
        "{:<30} {:>18.6} ratio",
        "failed_frac",
        r.failed as f64 / r.attempted.max(1) as f64
    );
    for (name, v, unit) in &r.info {
        println!("{name:<30} {v:>18.6} {unit}");
    }
    if args.trace {
        for line in trace::summary(&trace::spans()) {
            println!("# span {line}");
        }
    }
    match result_json(&r, names) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
