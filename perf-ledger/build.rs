//! Records the compiler that builds the ledger, for the provenance line.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERF_LEDGER_RUSTC={}", version.trim());
    println!("cargo:rerun-if-changed=build.rs");
}
