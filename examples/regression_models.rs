//! Chapter 5 of the thesis: concurrency and system measures.
//!
//! Runs random-sampling plus all-active-triggered sessions, then fits the
//! second-order median regression models of § 5.2 and regenerates Tables
//! 3–4 and the model-curve Figures 12–14. Prints the paper's headline
//! prediction: the miss-rate model roughly triples between `C_w = 0.5`
//! and `C_w = 1.0`, while `P_c` explains almost nothing.
//!
//! Run with: `cargo run --release --example regression_models`

use fx8_study::core::api::RunHooks;
use fx8_study::core::study::{Study, StudyConfig};
use fx8_study::core::{figures, tables};

fn main() {
    let cfg = StudyConfig {
        n_random: 4,
        session_hours: vec![1.5; 4],
        n_triggered: 3,
        captures_per_triggered: 25,
        n_transition: 0,
        ..StudyConfig::paper()
    };
    cfg.validate().expect("regression study config is valid");
    eprintln!(
        "running {} random + {} triggered sessions...",
        cfg.n_random, cfg.n_triggered
    );
    let (study, _) = Study::run(cfg, None, &RunHooks::default()).expect("uncancellable");

    let t3 = tables::table3(&study);
    let t4 = tables::table4(&study);
    println!("{}", t3.render());
    println!("{}", t4.render());
    println!("{}", figures::fig12(&study));
    println!("{}", figures::fig13(&study));
    println!("{}", figures::fig14(&study));

    if let Some(m) = t3.model("Median Miss Rate") {
        let half = m.predict(0.5);
        let full = m.predict(1.0);
        println!(
            "Missrate model: {half:.4} at C_w=0.5 -> {full:.4} at C_w=1.0 ({:.0}% increase; paper ~240-300%)",
            100.0 * (full - half) / half.max(1e-9)
        );
        println!("  fit quality: R^2 = {:.2} ({})", m.r2, m.r2_category());
    }
    if let (Some(m3), Some(m4)) = (t3.model("Median Miss Rate"), t4.model("Median Miss Rate")) {
        println!(
            "Missrate R^2: vs C_w {:.2} vs P_c {:.2} — the paper's key asymmetry (0.74 vs 0.07)",
            m3.r2, m4.r2
        );
    }
    if let Some(b4) = t4.model("Median CE Bus Busy") {
        println!(
            "CE bus busy saturation: model(6)={:.3}, model(8)={:.3} (paper: levels off ~0.30 past P_c=6)",
            b4.predict(6.0),
            b4.predict(8.0)
        );
    }
}
