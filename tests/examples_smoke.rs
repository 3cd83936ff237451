//! Smoke test: every example in `examples/` must build and exit cleanly.
//!
//! Examples are walkthrough documentation, and documentation that doesn't
//! run is worse than none — this test keeps them honest. Each example is a
//! short self-contained program (milliseconds of work), so running all five
//! is cheap.

use secmod::gate::ScenarioKind;
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

/// `gate_report` must run every row of the scenario table and report
/// ops/sec and a cache hit rate for each — and, because decisions are
/// seed-deterministic, two runs with the same seed must agree on every
/// allow/deny count even though timing differs.
#[test]
fn gate_report_covers_all_scenarios_deterministically() {
    let dir = examples_dir();
    if !dir.join("gate_report").exists() {
        build_examples();
    }
    let run = || {
        let output = Command::new(dir.join("gate_report"))
            .args(["--threads", "2", "--ops", "2000", "--seed", "7"])
            .output()
            .expect("run gate_report");
        assert!(output.status.success(), "gate_report failed: {output:?}");
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    let first = run();
    for scenario in ScenarioKind::ALL.map(|kind| kind.name()) {
        assert!(
            first.contains(scenario),
            "gate_report output is missing the {scenario} scenario:\n{first}"
        );
    }
    assert!(first.contains("ops/sec"), "no throughput column:\n{first}");
    assert!(first.contains("hit-rate"), "no hit-rate column:\n{first}");

    // Strip the timing-dependent columns; the decision columns must match.
    let decisions = |out: &str| -> Vec<(String, String)> {
        out.lines()
            .filter(|l| l.contains("allow"))
            .filter_map(|l| {
                let allow = l.split("allow").nth(1)?.split_whitespace().next()?;
                let deny = l.split("deny").nth(1)?.split_whitespace().next()?;
                Some((allow.to_string(), deny.to_string()))
            })
            .collect()
    };
    let second = run();
    assert_eq!(
        decisions(&first),
        decisions(&second),
        "allow/deny splits changed between identically seeded runs"
    );
    assert_eq!(
        decisions(&first).len(),
        ScenarioKind::ALL.len(),
        "expected one row per scenario"
    );

    // Dispatch scenarios additionally report simulated-cost latency
    // quantiles drawn from the kernel's per-flavor histograms.
    assert!(
        first.contains("p99"),
        "no latency quantiles in dispatch rows:\n{first}"
    );

    // --metrics drives all five flavors on one kernel and prints the
    // DispatchMetrics table; no flavor may come up empty.
    let output = Command::new(dir.join("gate_report"))
        .args(["--metrics", "--seed", "7"])
        .output()
        .expect("run gate_report --metrics");
    assert!(output.status.success(), "--metrics run failed: {output:?}");
    let metrics = String::from_utf8_lossy(&output.stdout);
    for flavor in ["syscall", "batch", "sweep", "plane", "async"] {
        assert!(
            metrics.contains(flavor),
            "metrics table missing the {flavor} flavor:\n{metrics}"
        );
    }
    assert!(
        !metrics.contains("(no samples)"),
        "a dispatch flavor recorded nothing:\n{metrics}"
    );

    // The CI smoke shape: an explicit drainer count plus --only filters
    // the report down to the single requested scenario.
    let output = Command::new(dir.join("gate_report"))
        .args([
            "--threads",
            "4",
            "--ops",
            "1000",
            "--seed",
            "7",
            "--drainers",
            "2",
            "--only",
            "plane",
        ])
        .output()
        .expect("run gate_report --only plane");
    assert!(output.status.success(), "plane-only run failed: {output:?}");
    let plane_only = String::from_utf8_lossy(&output.stdout);
    assert!(plane_only.contains("plane"), "missing plane row");
    assert_eq!(
        decisions(&plane_only).len(),
        1,
        "--only must run exactly one scenario"
    );

    // A typo'd scenario name must fail loudly, not exit green having run
    // nothing (the CI smoke leg depends on this).
    let output = Command::new(dir.join("gate_report"))
        .args(["--only", "plan"])
        .output()
        .expect("run gate_report --only plan");
    assert!(
        !output.status.success(),
        "unknown --only name must exit non-zero"
    );
}

/// README's scenario table restates the engine's table; it must list
/// every row by the engine's own name and summary.
#[test]
fn readme_scenario_table_matches_the_engine() {
    let readme = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let readme = std::fs::read_to_string(readme).expect("read README.md");
    for kind in ScenarioKind::ALL {
        let row = format!("| `{}` | {} |", kind.name(), kind.summary());
        assert!(readme.contains(&row), "README is missing the row: {row}");
    }
}
