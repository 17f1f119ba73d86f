//! `socrun`'s exit-code contract where a runner and a mapping policy meet:
//! 0 = ran and verified, 2 = usage error naming what cannot be combined.

use std::process::Command;

fn socrun(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_socrun"))
        .args(args)
        .output()
        .expect("socrun runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn lazy_policy_is_a_usage_error_only_for_the_dma_runners() {
    for mode in ["dma", "dma-chaos"] {
        let (code, stderr) = socrun(&["--mode", mode, "--policy", "lazy", "--queue", "64"]);
        assert_eq!(code, Some(2), "{mode}: {stderr}");
        assert!(
            stderr.contains(&format!("mode {mode} ")) && stderr.contains("Lazy"),
            "{mode}: the message must name the runner and the policy: {stderr}"
        );
    }
    // The same runners are fine eagerly mapped, and a Cohort-engine runner
    // that used to lose its paging hook is fine lazily mapped.
    for args in [
        ["--mode", "dma", "--policy", "eager"],
        ["--mode", "chain", "--policy", "lazy"],
    ] {
        let (code, stderr) = socrun(&[&args[..], &["--queue", "64"]].concat());
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
}
