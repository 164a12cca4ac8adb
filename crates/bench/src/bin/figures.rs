//! Regenerate the paper's Figures 2–6 (running time and communication of
//! secure Yannakakis vs. the naive garbled circuit vs. plaintext).
//!
//! Usage:
//!   figures [--figure N] [--scales a,b,c] [--full] [--sha] [--gc-anchor]
//!
//! * `--figure N` — only figure N (2..=6); default: all five.
//! * `--scales` — comma-separated dataset sizes in MB (overrides the
//!   scaled-down defaults).
//! * `--full` — the paper's scales 1,3,10,33,100 MB.
//! * `--sha` — use SHA-256 garbling instead of the default fixed-key
//!   AES (cross-check configuration, ~10× slower).
//! * `--gc-anchor` — additionally run the §8.2 anchor experiment: measure
//!   the runnable naive-GC instance used for calibration.

use secyan_bench::{calibrate_gc_rate, default_scales, fmt_bytes, fmt_secs, measure_point};
use secyan_crypto::TweakHasher;
use secyan_tpch::queries::PaperQuery;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figure: Option<u32> = None;
    let mut scales_override: Option<Vec<f64>> = None;
    let mut full = false;
    let mut hasher = TweakHasher::default();
    let mut gc_anchor = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--figure" => {
                i += 1;
                figure = Some(args[i].parse().expect("--figure takes 2..=6"));
            }
            "--scales" => {
                i += 1;
                scales_override = Some(
                    args[i]
                        .split(',')
                        .map(|s| s.parse().expect("scale in MB"))
                        .collect(),
                );
            }
            "--full" => full = true,
            "--sha" => hasher = TweakHasher::Sha256,
            "--gc-anchor" => gc_anchor = true,
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!("Calibrating the naive-GC gate rate on a runnable instance...");
    let gc_rate = calibrate_gc_rate(hasher);
    println!("  measured rate: {gc_rate:.0} AND gates/s ({hasher:?} garbling)\n");

    if gc_anchor {
        anchor(gc_rate);
    }

    for q in PaperQuery::all() {
        if let Some(f) = figure {
            if q.figure() != f {
                continue;
            }
        }
        let scales = scales_override.clone().unwrap_or_else(|| {
            if full {
                vec![1.0, 3.0, 10.0, 33.0, 100.0]
            } else {
                default_scales(q)
            }
        });
        println!(
            "=== Figure {}: TPC-H {} — time and communication ===",
            q.figure(),
            q.name()
        );
        println!(
            "{:>9} {:>9} {:>8} | {:>12} {:>12} | {:>12} {:>12} | {:>12} {:>12} | {:>6} {:>6}",
            "scale",
            "eff.size",
            "tuples",
            "SY time",
            "SY comm",
            "GC time*",
            "GC comm*",
            "plain time",
            "plain comm",
            "rows",
            "match"
        );
        for &mb in &scales {
            let p = measure_point(q, mb, hasher, gc_rate, 42);
            println!(
                "{:>7.2}MB {:>7.2}MB {:>8} | {:>12} {:>12} | {:>12} {:>12} | {:>12} {:>12} | {:>6} {:>6}",
                p.scale_mb,
                p.effective_mb,
                p.input_tuples,
                fmt_secs(p.sy_time.as_secs_f64()),
                fmt_bytes(p.sy_comm_bytes as u128),
                fmt_secs(p.gc_time_secs),
                fmt_bytes(p.gc_comm_bytes),
                fmt_secs(p.plain_time.as_secs_f64()),
                fmt_bytes(p.plain_comm_bytes as u128),
                p.out_rows,
                if p.results_match { "yes" } else { "NO!" },
            );
        }
        println!("  (* naive-GC extrapolated from exact circuit size, per the paper's §8.2)\n");
    }
}

/// The §8.2 anchor: the paper's hand-written Q3 product circuit over
/// 7,655 tuples took 2.8 hours on their hardware; we report what the same
/// circuit costs under our model and measured rate.
fn anchor(gc_rate: f64) {
    use secyan_baseline::CartesianCostModel;
    let model = CartesianCostModel::default();
    // 1 MB Q3 relation sizes (customer, orders, lineitem).
    let c = model.cost(&[150, 1500, 6000]);
    println!("=== §8.2 anchor: naive GC on Q3 @ 1 MB (7,650 tuples) ===");
    println!("  combinations: {}", c.combinations);
    println!("  AND gates:    {}", c.and_gates);
    println!("  tables:       {}", fmt_bytes(c.table_bytes));
    println!(
        "  extrapolated: {} at the measured rate (paper: 2.8 h on AES-NI hardware)\n",
        fmt_secs(c.seconds_at(gc_rate))
    );
}
