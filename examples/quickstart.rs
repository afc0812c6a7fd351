//! Quickstart: build the measured machine, run a short workload session,
//! and compute the paper's concurrency measures from captured buffers.
//!
//! Run with: `cargo run --release --example quickstart`

use fx8_study::prelude::*;

fn main() {
    // A scaled-down study: 4 short random-sampling sessions, checked
    // before it runs.
    let cfg = StudyConfig {
        n_random: 4,
        session_hours: vec![1.5, 1.5, 1.5, 1.5],
        n_triggered: 0,
        n_transition: 0,
        ..StudyConfig::quick()
    };
    cfg.validate().expect("quickstart study config is valid");
    println!("running {} random-sampling sessions...", cfg.n_random);
    let (study, _) = Study::run(cfg, None, &RunHooks::default()).expect("uncancellable");

    let m = study.overall_measures();
    println!("records: {}", m.total_records);
    for (j, c) in m.c.iter().enumerate() {
        println!("  c_{j} = {c:.4}");
    }
    println!("Workload Concurrency C_w  = {:.3}", m.workload_concurrency);
    match m.mean_concurrency_level {
        Some(pc) => println!("Mean Concurrency Level P_c = {pc:.2}"),
        None => println!("Mean Concurrency Level P_c is undefined (no concurrency observed)"),
    }
    let counts = study.pooled_counts();
    println!("Missrate    = {:.4}", counts.missrate());
    println!("CE Bus Busy = {:.4}", counts.ce_bus_busy());
    let samples = study.all_samples();
    println!("samples: {}", samples.len());
    let zero = samples
        .iter()
        .filter(|s| s.workload_concurrency() == 0.0)
        .count();
    println!(
        "samples with zero concurrency: {} ({:.0}%)",
        zero,
        100.0 * zero as f64 / samples.len() as f64
    );
}
