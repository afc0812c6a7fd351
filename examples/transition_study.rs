//! § 4.3 of the thesis: what happens at the end of concurrent loops.
//!
//! Arms the logic analyzer with the transition-from-full trigger, captures
//! loop drains from the production workload, and regenerates Figures 6–7:
//! the distribution of intermediate concurrency states and the per-CE
//! activity profile. Then re-runs the experiment with a fair (round-robin)
//! CCB grant chain to show the uneven per-CE profile is an arbitration
//! artifact — the ablation DESIGN.md calls out.
//!
//! Run with: `cargo run --release --example transition_study`

use fx8_study::core::api::RunHooks;
use fx8_study::core::experiment::{run_transition_session, SessionConfig};
use fx8_study::core::figures;
use fx8_study::core::study::{Study, StudyConfig};
use fx8_study::monitor::EventCounts;
use fx8_study::sim::config::Arbitration;

fn ends_to_middle(counts: &EventCounts) -> f64 {
    let ends = (counts.prof[0] + counts.prof[7]) as f64 / 2.0;
    let middle: f64 = (1..7).map(|j| counts.prof[j] as f64).sum::<f64>() / 6.0;
    ends / middle.max(1.0)
}

fn main() {
    let cfg = StudyConfig {
        n_random: 0,
        session_hours: vec![],
        n_triggered: 0,
        n_transition: 3,
        captures_per_transition: 30,
        ..StudyConfig::paper()
    };
    cfg.validate().expect("transition study config is valid");
    eprintln!(
        "capturing loop drains from {} transition sessions...",
        cfg.n_transition
    );
    let (study, _) = Study::run(cfg, None, &RunHooks::default()).expect("uncancellable");

    println!("{}", figures::fig6(&study));
    println!("{}", figures::fig7(&study));

    let pooled = study.pooled_transition_counts();
    let transition: u64 = (2..8).map(|j| pooled.num[j]).sum();
    println!(
        "2-active share of transition states: {:.1}% (paper: 52.4%)",
        100.0 * pooled.num[2] as f64 / transition.max(1) as f64
    );
    println!(
        "ends/middle CE activity ratio: {:.2} (paper: CEs 7 and 0 dominate)",
        ends_to_middle(&pooled)
    );

    // Ablation: a fair grant chain flattens the per-CE profile.
    eprintln!("re-running one session with a round-robin CCB grant chain...");
    let mut fair_cfg = SessionConfig::paper(4242);
    fair_cfg.hours = 1.0;
    fair_cfg.machine.ccb_arbitration = Arbitration::RoundRobin;
    let (buffers, _) = run_transition_session(&fair_cfg, 0, 30);
    let mut fair = EventCounts::empty(8);
    for b in &buffers {
        fair.merge(&b.counts);
    }
    println!(
        "with round-robin grants the ends/middle ratio drops to {:.2}",
        ends_to_middle(&fair)
    );
}
