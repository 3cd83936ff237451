//! Smoke test: every example in `examples/` must build and exit cleanly.
//!
//! Examples are walkthrough documentation, and documentation that doesn't
//! run is worse than none — this test keeps them honest. Each example is a
//! short self-contained program (well under a second of work), so running
//! every one of them is cheap.

use std::path::PathBuf;
use std::process::Command;

/// Enumerate `examples/*.rs` from the source tree so examples added later
/// are picked up automatically — a hardcoded list would silently skip them.
fn example_names() -> Vec<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read examples/")
        .filter_map(|e| {
            let path = e.ok()?.path();
            if path.extension()? == "rs" {
                Some(path.file_stem()?.to_string_lossy().into_owned())
            } else {
                None
            }
        })
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no examples found in {}", dir.display());
    names
}

/// Directory holding compiled example binaries for the active profile:
/// `target/<profile>/examples`, derived from this test binary's own path
/// (`target/<profile>/deps/<test>-<hash>`).
fn examples_dir() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop(); // <test>-<hash>
    if dir.ends_with("deps") {
        dir.pop();
    }
    dir.join("examples")
}

/// Build all examples with the cargo that launched this test, matching the
/// active profile so the binaries land where `examples_dir` looks.
fn build_examples() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.arg("build").arg("--examples");
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    let status = cmd.status().expect("spawn cargo build --examples");
    assert!(status.success(), "cargo build --examples failed");
}

#[test]
fn every_example_builds_and_runs() {
    let examples = example_names();
    let dir = examples_dir();
    if examples.iter().any(|e| !dir.join(e).exists()) {
        build_examples();
    }
    for example in &examples {
        let path = dir.join(example);
        assert!(path.exists(), "example binary missing: {}", path.display());
        let output = Command::new(&path)
            .output()
            .unwrap_or_else(|e| panic!("failed to run {example}: {e}"));
        assert!(
            output.status.success(),
            "example {example} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
        assert!(
            !output.stdout.is_empty(),
            "example {example} printed nothing — walkthroughs should narrate"
        );
    }
}
