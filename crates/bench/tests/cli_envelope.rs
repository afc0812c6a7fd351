//! Regression tests for the CLI's uniform error envelope.
//!
//! An invalid configuration must exit with the documented code 2 and a
//! one-line `reproduce: error[config/...]: ...` diagnostic — the same
//! stable machine-readable code an HTTP client would see in the server's
//! `{"api":1,"error":{...}}` envelope, because both transports route
//! through `fx8_core::api`.

use std::process::Command;

fn reproduce(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn invalid_trace_config_exits_2_with_a_stable_code() {
    let (code, stderr) = reproduce(&["trace", "--quick", "--event-capacity", "0"]);
    assert_eq!(code, Some(2), "documented exit code for invalid config");
    assert!(
        stderr.contains("reproduce: error[config/zero-trace-event-capacity]:"),
        "stderr carries the envelope code: {stderr}"
    );
    assert!(
        stderr.contains("trace.event_capacity"),
        "diagnostic names the offending field: {stderr}"
    );
}

#[test]
fn invalid_scale_width_exits_2_with_a_stable_code() {
    let (code, stderr) = reproduce(&["scale", "--quick", "--widths", "0", "--no-cache"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("reproduce: error[config/"),
        "scale failures use the same envelope: {stderr}"
    );
}

#[test]
fn a_hammer_of_zero_requests_exits_2_before_the_server_starts() {
    let (code, stderr) = reproduce(&["hammer", "--requests", "0", "--no-record"]);
    assert_eq!(code, Some(2), "documented exit code for invalid config");
    assert!(
        stderr.contains("reproduce: error[config/zero-hammer-requests]:"),
        "stderr carries the envelope code: {stderr}"
    );
    assert!(
        !stderr.contains("cold quick study"),
        "rejected before the server starts: {stderr}"
    );
}

#[test]
fn unknown_flags_still_print_usage_not_an_envelope() {
    // Argument-parse errors are not API errors: they exit 1 with usage,
    // keeping the config/* code space for validated-config failures only.
    let (code, stderr) = reproduce(&["run", "--definitely-not-a-flag"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("usage: reproduce"), "{stderr}");
    assert!(!stderr.contains("error[config/"), "{stderr}");
}

#[test]
fn foreign_flags_and_missing_values_print_usage_not_an_envelope() {
    // A flag of another subcommand and a flag without its value are
    // argument errors too, on every subcommand.
    for args in [&["audit", "--widths", "2"][..], &["scale", "--widths"]] {
        let (code, stderr) = reproduce(args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
        assert!(!stderr.contains("error["), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_experiment_id_exits_2_before_the_study_runs() {
    let (code, stderr) = reproduce(&["run", "--quick", "--no-cache", "table2", "table99"]);
    assert_eq!(code, Some(2), "documented exit code for a bad request");
    assert!(
        stderr.contains("reproduce: error[request/unknown-id]:"),
        "stderr carries the envelope code: {stderr}"
    );
    assert!(stderr.contains("\"table99\""), "names the bad ID: {stderr}");
    assert!(
        !stderr.contains("running study"),
        "rejected before any simulation: {stderr}"
    );
}
