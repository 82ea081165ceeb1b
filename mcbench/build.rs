//! Stamps build provenance (compiler version, build profile, git
//! revision) into the benchmark binary so every result it writes names
//! the toolchain and source it came from.

use std::path::Path;
use std::process::Command;

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = stdout_of(Command::new(rustc).arg("-V")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=MCBENCH_RUSTC={version}");

    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=MCBENCH_PROFILE={profile}");

    // Only the repository this package sits in counts: a source checkout
    // without `.git` reports "none" rather than some enclosing repo.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest).join("..");
    let git = root.join(".git");
    let revision = if git.exists() {
        println!("cargo:rerun-if-changed={}", git.join("HEAD").display());
        println!("cargo:rerun-if-changed={}", git.join("refs").display());
        stdout_of(Command::new("git").arg("-C").arg(&root).args([
            "rev-parse",
            "--short=12",
            "HEAD",
        ]))
        .unwrap_or_else(|| "unknown".into())
    } else {
        "none".to_string()
    };
    println!("cargo:rustc-env=MCBENCH_GIT_REV={revision}");
    println!("cargo:rerun-if-changed=build.rs");
}
