//! All seven workloads in one go: for each, an untraced and then a traced
//! run, each in a fresh child process (so `peak_rss_mib` is the
//! workload's own), every metric printed by name with its unit, and the
//! lot written to `out/result.json`. `--repeat 2` does it twice and fails if
//! the second set is worse than the first by more than an end-to-end bound.

use crate::json::Json;
use crate::schema::{Better, END_TO_END};
use crate::stats::worsening;
use crate::workloads::Kind;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub repeat: usize,
    pub out_dir: PathBuf,
}

/// What one child run printed.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
}

fn child(args: &SuiteArgs, kind: Kind, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("child exited with {}:\n{text}", out.status));
    }
    let mut run = ChildRun {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let mut saw_result = false;
    for line in text.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                let (Some(name), Some(value), Some(unit)) =
                    (words.next(), words.next(), words.next())
                else {
                    return Err(format!("malformed metric line: {line}"));
                };
                let value: f64 = value.parse().map_err(|e| format!("{line}: {e}"))?;
                run.metrics
                    .push((name.to_string(), value, unit.to_string()));
            }
            Some("note") => run.notes.push(line["note ".len()..].to_string()),
            Some(first) if first.starts_with('{') => {
                // The result line; its three scalars are all the suite needs.
                saw_result = true;
                run.correct = line.contains("\"correct\": true");
                run.attempted = scalar(line, "attempted")?;
                run.failed = scalar(line, "failed")?;
            }
            _ => {}
        }
    }
    if !saw_result {
        return Err(format!("child printed no result line:\n{text}"));
    }
    Ok(run)
}

/// Read `"key": <integer>` out of the result line.
fn scalar(line: &str, key: &str) -> Result<u64, String> {
    let tag = format!("\"{key}\": ");
    let at = line
        .find(&tag)
        .ok_or_else(|| format!("no {key} in {line}"))?
        + tag.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().map_err(|e| format!("{key}: {e}"))
}

/// One pass over all workloads. Returns the JSON of the pass, its
/// end-to-end values by workload, and whether everything was correct.
fn pass(args: &SuiteArgs, index: usize) -> (Json, Vec<(Kind, Vec<f64>)>, bool) {
    let mut ok = true;
    let mut workloads = Vec::new();
    let mut e2e = Vec::new();
    for kind in Kind::ALL {
        let mut entry = vec![("name".to_string(), Json::str(kind.name()))];
        for traced in [false, true] {
            let mode = if traced { "traced" } else { "untraced" };
            let started = Instant::now();
            match child(args, kind, traced) {
                Ok(run) => {
                    println!(
                        "== pass {index} {} {mode}: correct {} attempted {} failed {} ({:.1} s)",
                        kind.name(),
                        run.correct,
                        run.attempted,
                        run.failed,
                        started.elapsed().as_secs_f64()
                    );
                    for note in &run.notes {
                        println!("   {note}");
                    }
                    for (name, value, unit) in &run.metrics {
                        println!("   {name:<32} {value:>18.4} {unit}");
                    }
                    ok &= run.correct && run.failed == 0;
                    if !traced {
                        e2e.push((
                            kind,
                            END_TO_END
                                .iter()
                                .map(|(m, _)| {
                                    run.metrics
                                        .iter()
                                        .find(|(n, _, _)| n == m.name)
                                        .map_or(f64::NAN, |(_, v, _)| *v)
                                })
                                .collect(),
                        ));
                    }
                    entry.push((
                        mode.to_string(),
                        Json::obj([
                            ("correct", Json::Bool(run.correct)),
                            ("attempted", Json::Int(run.attempted)),
                            ("failed", Json::Int(run.failed)),
                            (
                                "metrics",
                                Json::obj(run.metrics.iter().map(|(n, v, u)| {
                                    (
                                        n.as_str(),
                                        Json::obj([
                                            ("value", Json::Num(*v)),
                                            ("unit", Json::str(u.as_str())),
                                        ]),
                                    )
                                })),
                            ),
                            (
                                "notes",
                                Json::Arr(run.notes.iter().map(Json::str).collect()),
                            ),
                        ]),
                    ));
                }
                Err(e) => {
                    println!("== pass {index} {} {mode}: FAILED TO RUN: {e}", kind.name());
                    ok = false;
                }
            }
        }
        workloads.push(Json::Obj(entry));
    }
    (Json::Arr(workloads), e2e, ok)
}

pub fn run(args: &SuiteArgs) -> bool {
    let started = Instant::now();
    let mut ok = true;
    let mut passes = Vec::new();
    let mut e2e_by_pass = Vec::new();
    for index in 1..=args.repeat {
        let (json, e2e, pass_ok) = pass(args, index);
        ok &= pass_ok;
        passes.push(json);
        e2e_by_pass.push(e2e);
    }

    // Each later pass against the first, metric by metric.
    let mut comparisons = Vec::new();
    for (index, later) in e2e_by_pass.iter().enumerate().skip(1) {
        println!("== pass {} against pass 1 (worse by, bound)", index + 1);
        for ((kind, first), (_, second)) in e2e_by_pass[0].iter().zip(later) {
            for (((metric, bound), a), b) in END_TO_END.iter().zip(first).zip(second) {
                // The driver's rule: a later set may not be worse than the
                // first by more than the bound. (Better by more than the
                // bound says the first set met a bad spell of the host.)
                let worse = worsening(*a, *b, metric.better == Better::Higher);
                let within = worse <= *bound;
                ok &= within;
                println!(
                    "   {:<15} {:<13} {a:>16.4} -> {b:>16.4} {:>+7.2}% (bound {:.0}%) {}",
                    kind.name(),
                    metric.name,
                    worse * 100.0,
                    bound * 100.0,
                    if within { "ok" } else { "OUT OF BOUND" }
                );
                comparisons.push(Json::obj([
                    ("workload", Json::str(kind.name())),
                    ("metric", Json::str(metric.name)),
                    ("first", Json::Num(*a)),
                    ("later", Json::Num(*b)),
                    ("worse_by", Json::Num(worse)),
                    ("within_bound", Json::Bool(within)),
                ]));
            }
        }
    }

    let result = Json::obj([
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("ok", Json::Bool(ok)),
        ("passes", Json::Arr(passes)),
        ("comparisons", Json::Arr(comparisons)),
    ]);
    let path = args.out_dir.join(if args.smoke {
        "result-smoke.json"
    } else {
        "result.json"
    });
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, format!("{result}\n")));
    match written {
        Ok(()) => println!("== result written to {}", path.display()),
        Err(e) => {
            println!("== could not write {}: {e}", path.display());
            ok = false;
        }
    }
    println!(
        "== {} in {:.1} s",
        if ok { "ALL OK" } else { "NOT OK" },
        started.elapsed().as_secs_f64()
    );
    ok
}
