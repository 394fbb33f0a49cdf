//! The `suite` binary's budget environment variables.

use std::process::Command;

#[test]
fn an_unparsable_budget_variable_exits_2_naming_it() {
    for (name, other, value) in [
        ("NETSMITH_EVALS", "NETSMITH_WORKERS", "12k"),
        ("NETSMITH_WORKERS", "NETSMITH_EVALS", "-1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_suite"))
            .args(["--quick", "fig04_topology"])
            .env(name, value)
            .env_remove(other)
            .output()
            .expect("suite runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}={value}: {stderr}");
        assert!(
            stderr.contains(&format!("invalid {name} value \"{value}\"")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "no figure may run");
    }
}
