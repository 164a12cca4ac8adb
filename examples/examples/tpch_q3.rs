//! TPC-H Q3 end to end: generate a dataset, run the secure protocol, and
//! compare against the plaintext engine — a miniature of the paper's
//! Figure 2 experiment.
//!
//! ```text
//! cargo run --release -p secyan-examples --example tpch_q3 [scale_mb]
//! ```
//!
//! `scale_mb` defaults to 0.1 (a 0.1 MB-equivalent TPC-H dump); the paper
//! ran 1–100 MB on AES-NI hardware.

use secyan_crypto::{RingCtx, TweakHasher};
use secyan_relation::NaturalRing;
use secyan_tpch::queries::{canonical, run_plaintext_instance, run_secure_instance, PaperQuery};
use secyan_tpch::{Database, Scale};
use secyan_transport::run_protocol;
use std::time::Instant;

fn main() {
    let mb: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale in MB"))
        .unwrap_or(0.1);
    let ring = NaturalRing::paper_default();

    println!("Generating a {mb} MB-equivalent TPC-H database...");
    let db = Database::generate(Scale::mb(mb), 42);
    let spec = PaperQuery::Q3.build(&db, ring);
    println!(
        "  {} input tuples across {} relations (selections dummied out — their selectivity is private).",
        spec.input_tuples(),
        spec.subqueries[0].relations.len()
    );

    // Plaintext reference (the figures' non-private baseline).
    let t0 = Instant::now();
    let want = canonical(run_plaintext_instance(&spec, ring));
    let plain_time = t0.elapsed();
    println!(
        "Plaintext Yannakakis: {} result rows in {:?}.",
        want.len(),
        plain_time
    );

    // The secure protocol, both parties as real threads.
    println!("Running secure Yannakakis (this garbles real circuits)...");
    let (sa, sb) = (spec.clone(), spec.clone());
    let t0 = Instant::now();
    let (rows, _, stats) = run_protocol(
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 1);
            run_secure_instance(&mut sess, &sa)
        },
        move |ch| {
            let mut sess =
                secyan_core::Session::new(ch, RingCtx::new(32), TweakHasher::default(), 2);
            run_secure_instance(&mut sess, &sb)
        },
    );
    let sy_time = t0.elapsed();
    println!(
        "Secure Yannakakis: {} result rows in {:?}, {:.2} MB of traffic.",
        rows.len(),
        sy_time,
        stats.total_bytes() as f64 / 1e6
    );

    assert_eq!(canonical(rows), want, "secure result must match plaintext");
    println!("Secure and plaintext results match exactly. ✓");
    println!(
        "\nSlowdown vs. plaintext: {:.0}× — the price of learning nothing.",
        sy_time.as_secs_f64() / plain_time.as_secs_f64().max(1e-9)
    );
    println!("(For the naive garbled-circuit comparison, run the `figures` binary.)");
}
