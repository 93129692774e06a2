//! Linter self-tests: every known-bad fixture fires its rule exactly
//! once, the known-good fixture is silent, and the real workspace tree is
//! clean — so `cargo test` itself gates the lint surface.

use std::path::PathBuf;
use xtask::rules::Rule;
use xtask::{lint_paths, lint_tree, workspace_root, Report};

fn lint_fixture(name: &str) -> Report {
    let root = workspace_root();
    let path: PathBuf = root.join("xtask/fixtures").join(name);
    lint_paths(&root, &[path]).expect("fixture must be readable")
}

/// Assert the fixture produces exactly one diagnostic, of `rule`.
fn assert_fires_once(name: &str, rule: Rule) {
    let report = lint_fixture(name);
    assert_eq!(
        report.total_violations(),
        1,
        "{name}: expected exactly one diagnostic, got:\n{}",
        report.render_text()
    );
    assert_eq!(
        report.violations[0].0,
        rule,
        "{name}: wrong rule fired:\n{}",
        report.render_text()
    );
}

#[test]
fn bad_l1_lock_unwrap_fires_once() {
    assert_fires_once("bad_l1_lock_unwrap.rs", Rule::LockUnwrap);
}

#[test]
fn bad_l1_empty_allow_reason_still_fires() {
    let report = lint_fixture("bad_l1_empty_allow_reason.rs");
    assert_eq!(report.total_violations(), 1, "{}", report.render_text());
    assert_eq!(report.violations[0].0, Rule::LockUnwrap);
    assert!(
        report.violations[0].1.message.contains("reason"),
        "the diagnostic must demand a justification: {}",
        report.violations[0].1.message
    );
    assert!(
        report.allowed.is_empty(),
        "an empty reason must not count as an exemption"
    );
}

#[test]
fn bad_l2_wetlab_under_guard_fires_once() {
    assert_fires_once("bad_l2_wetlab_under_guard.rs", Rule::WetlabUnderLock);
}

#[test]
fn bad_l2_execute_round_under_guard_fires_once() {
    assert_fires_once("bad_l2_execute_round_under_guard.rs", Rule::WetlabUnderLock);
}

#[test]
fn bad_l3_missing_rank_fires_once() {
    assert_fires_once("bad_l3_missing_rank.rs", Rule::LockRank);
}

#[test]
fn bad_l3_rank_order_fires_once() {
    assert_fires_once("bad_l3_rank_order.rs", Rule::LockRank);
}

#[test]
fn bad_l4_instant_in_commit_path_fires_once() {
    assert_fires_once("bad_l4_instant_in_commit_path.rs", Rule::Determinism);
}

#[test]
fn good_fixture_is_silent() {
    let report = lint_fixture("good.rs");
    assert_eq!(
        report.total_violations(),
        0,
        "good.rs must be lint-clean:\n{}",
        report.render_text()
    );
}

#[test]
fn fixture_effective_paths_are_honored() {
    // The treat-as directive must scope L3/L4 onto fixture files that
    // physically live under xtask/fixtures/.
    let report = lint_fixture("bad_l4_instant_in_commit_path.rs");
    assert!(
        report.violations[0].1.file.starts_with("crates/core/src/"),
        "treat-as path not applied: {}",
        report.violations[0].1.file
    );
}

#[test]
fn workspace_tree_is_lint_clean() {
    let report = lint_tree(&workspace_root()).expect("tree walk");
    assert_eq!(
        report.total_violations(),
        0,
        "the workspace must stay lint-clean:\n{}",
        report.render_text()
    );
    // The justified-exemption surface is part of the contract: an exact
    // count means a new exemption (or a silently dropped one) fails here
    // and must be added deliberately, with this pin updated in the same
    // change.
    assert_eq!(
        report.allowed.len(),
        10,
        "justified-exemption surface changed — review the new/removed \
         exemption and update this pin:\n{}",
        report.render_text()
    );
}
