//! Chapter 4 of the thesis: characterize concurrency in the workload.
//!
//! Runs a set of random-sampling sessions over the calibrated CSRD-style
//! production mix and regenerates Table 2 (overall concurrency measures)
//! and Figures 3–5 (activity histogram, per-sample `C_w` and `P_c`
//! distributions).
//!
//! Run with: `cargo run --release --example workload_characterization`

use fx8_study::core::api::RunHooks;
use fx8_study::core::study::{Study, StudyConfig};
use fx8_study::core::{figures, tables};

fn main() {
    let cfg = StudyConfig {
        n_random: 4,
        session_hours: vec![1.0, 1.0, 1.5, 1.5],
        n_triggered: 0,
        n_transition: 0,
        ..StudyConfig::paper()
    };
    cfg.validate()
        .expect("characterization study config is valid");
    eprintln!(
        "sampling {} sessions ({} hours of machine time)...",
        cfg.n_random,
        cfg.session_hours.iter().sum::<f64>()
    );
    let (study, _) = Study::run(cfg, None, &RunHooks::default()).expect("uncancellable");

    println!("{}", tables::table2(&study).render());
    println!("{}", figures::fig3(&study));
    println!("{}", figures::fig4(&study));
    println!("{}", figures::fig5(&study));
    println!("{}", tables::render_table_a1(&tables::table_a1(&study)));

    let m = study.overall_measures();
    println!(
        "Headline: C_w = {:.3} (paper 0.35), P_c = {} (paper 7.66)",
        m.workload_concurrency,
        m.mean_concurrency_level
            .map_or("undefined".into(), |p| format!("{p:.2}")),
    );
}
