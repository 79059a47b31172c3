//! Stamps the build with what the result fingerprint needs: the rustc
//! version and the git commit being measured (`none` outside a git
//! repository, as in an exported checkout).

use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=../.git/HEAD");
    println!("cargo:rerun-if-changed=../.git/refs");
    let stamp = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = stamp(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let commit = stamp("git", &["-C", root, "rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "none".into());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
}
