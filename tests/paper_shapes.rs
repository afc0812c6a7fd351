//! The reproduction's scientific regression test: a reduced-scale study on
//! the calibrated production mix must show the paper's qualitative shapes.
//! Tolerances are wide — these guard the *phenomena*, not the third digit.

use fx8_study::core::api::RunHooks;
use fx8_study::core::report::comparison;
use fx8_study::core::study::{Study, StudyConfig};
use fx8_study::core::tables;
use std::sync::OnceLock;

/// About a sixth of the paper-scale study: enough samples for stable
/// band-level statistics, small enough for the test suite.
fn shape_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| {
        let cfg = StudyConfig {
            n_random: 5,
            session_hours: vec![1.5; 5],
            n_triggered: 4,
            captures_per_triggered: 25,
            n_transition: 4,
            captures_per_transition: 30,
            ..StudyConfig::paper()
        };
        Study::run(cfg, None, &RunHooks::default())
            .expect("an uncancellable run completes")
            .0
    })
}

fn row(id: &str, metric_prefix: &str) -> f64 {
    comparison(shape_study())
        .into_iter()
        .find(|r| r.id == id && r.metric.starts_with(metric_prefix))
        .unwrap_or_else(|| panic!("no comparison row {id} / {metric_prefix}"))
        .measured
}

#[test]
fn workload_is_about_one_third_concurrent() {
    let m = shape_study().overall_measures();
    assert!(
        (0.15..0.55).contains(&m.workload_concurrency),
        "C_w = {} should be near the paper's 0.35",
        m.workload_concurrency
    );
}

#[test]
fn concurrent_periods_use_nearly_all_processors() {
    let m = shape_study().overall_measures();
    let pc = m.mean_concurrency_level.expect("concurrency exists");
    assert!(pc > 7.0, "P_c = {pc} should be close to 8 (paper: 7.66)");
    assert!(
        m.c_j_given_concurrent(8) > 0.8,
        "8-active dominates concurrency (paper: 0.93)"
    );
}

#[test]
fn activity_distribution_is_tri_modal() {
    // Figure 3: idle, serial and full concurrency dominate; intermediate
    // states are rare.
    let num = shape_study().pooled_num();
    let total: u64 = num.iter().sum();
    let modes = (num[0] + num[1] + num[8]) as f64 / total as f64;
    assert!(modes > 0.9, "idle+serial+full = {modes:.3} of records");
}

#[test]
fn many_samples_see_no_concurrency_at_all() {
    // Figure 4's 44.6% mass at zero (burstiness of the load).
    let zero = row("Figure 4", "% of samples with C_w = 0");
    assert!((20.0..75.0).contains(&zero), "zero-C_w samples: {zero}%");
}

#[test]
fn transitions_are_dominated_by_low_concurrency_states() {
    // Figure 6: the 2-active state is the largest transition state.
    let num = shape_study().pooled_transition_counts().num;
    let transition: u64 = (2..8).map(|j| num[j]).sum();
    let low = (num[2] + num[3]) as f64 / transition.max(1) as f64;
    assert!(
        low > 0.25,
        "2/3-active should carry a large share of transition states: {low:.2} of {num:?}"
    );
}

#[test]
fn end_processors_trail_through_transitions() {
    // Figure 7: CEs 0 and 7 stay active longer than the middle CEs.
    let ratio = row("Figure 7", "transition activity");
    assert!(
        ratio > 1.1,
        "ends/middle activity ratio {ratio} should exceed 1"
    );
}

#[test]
fn missrate_rises_with_workload_concurrency() {
    // Figure 10 / Table 3: the low band sits far below the upper bands.
    let low = row("Figure 10", "median Missrate, C_w band (0.0, 0.4]");
    let mid = row("Figure 10", "median Missrate, C_w band (0.4, 0.8]");
    let high = row("Figure 10", "median Missrate, C_w band (0.8, 1.0]");
    let upper = mid.max(high);
    assert!(
        upper > low + 0.005,
        "missrate must rise with C_w: {low:.4} -> {mid:.4} -> {high:.4}"
    );
}

#[test]
fn missrate_is_less_sensitive_to_concurrency_level_than_to_cw() {
    // The paper's central asymmetry (Tables 3 vs 4): the relative swing of
    // the upper P_c bands is small compared to the C_w swing.
    let mid = row("Figure 11", "median Missrate, P_c band (6.0, 7.5]");
    let high = row("Figure 11", "median Missrate, P_c band (7.5, 8.0]");
    if mid > 0.0 && high > 0.0 {
        let swing = (high / mid).max(mid / high);
        assert!(
            swing < 6.0,
            "upper P_c bands should be comparable: {mid:.4} vs {high:.4}"
        );
    }
}

#[test]
fn bus_activity_tracks_workload_concurrency_nearly_linearly() {
    let t3 = tables::table3(shape_study());
    let busy = t3.model("Median CE Bus Busy").expect("busy model fits");
    assert!(busy.r2 > 0.6, "busy-vs-C_w R^2 = {} (paper: 0.89)", busy.r2);
    let at_full = busy.predict(1.0);
    assert!(
        (0.15..0.55).contains(&at_full),
        "busy at C_w=1 is {at_full} (paper: ~0.33)"
    );
    assert!(
        busy.predict(1.0) > busy.predict(0.2),
        "busy increases with C_w"
    );
}

#[test]
fn page_faults_grow_with_concurrency() {
    let t3 = tables::table3(shape_study());
    let pfr = t3
        .model("Median Page Fault Rate")
        .expect("fault model fits");
    assert!(
        pfr.predict(0.9) > pfr.predict(0.1),
        "fault rate should grow with C_w: {} vs {}",
        pfr.predict(0.9),
        pfr.predict(0.1)
    );
}

#[test]
fn regression_tables_fit_all_three_measures_against_cw() {
    // The C_w axis always has occupied bins from 0 to 1; the P_c axis can
    // legitimately concentrate above 7 on a reduced study, so only the
    // C_w table is required to fit everything.
    let t3 = tables::table3(shape_study());
    for measure in [
        "Median Miss Rate",
        "Median CE Bus Busy",
        "Median Page Fault Rate",
    ] {
        assert!(t3.model(measure).is_some(), "{measure} vs C_w did not fit");
    }
}
