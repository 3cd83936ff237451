//! The Figure 8 trial runner.
//!
//! The paper measures four configurations, 10 trials each:
//!
//! | configuration        | calls/trial | µs/call | stdev   |
//! |----------------------|-------------|---------|---------|
//! | native `getpid()`    | 1,000,000   | 0.658   | 0.0092  |
//! | SMOD(SMOD-getpid)    | 1,000,000   | 6.532   | 0.2985  |
//! | SMOD(test-incr)      | 1,000,000   | 6.407   | 0.0751  |
//! | RPC(test-incr)       |   100,000   | 63.230  | 0.1348  |
//!
//! [`run_simulated`] reproduces the first three rows on the deterministic,
//! paper-calibrated kernel simulator (the RPC row has no simulated
//! equivalent — it is a real userland RPC stack, measured natively).
//! [`run_native`] measures all four rows in wall-clock time on the host:
//! absolute values reflect modern hardware, but the *ordering* and rough
//! ratios are the reproduction target.

use secmod_core::libc_retrofit::libc_module;
use secmod_core::native::{native_getpid, NativeModule, NativeSession};
use secmod_core::prelude::*;
use secmod_rpc::services::{spawn_local_testincr_server, TestIncrClient};
use std::time::Instant;

/// The paper's reference numbers (µs/call), used for the comparison column.
pub const PAPER_GETPID_US: f64 = 0.658;
/// Paper reference for SMOD(SMOD-getpid).
pub const PAPER_SMOD_GETPID_US: f64 = 6.532;
/// Paper reference for SMOD(test-incr).
pub const PAPER_SMOD_TESTINCR_US: f64 = 6.407;
/// Paper reference for RPC(test-incr).
pub const PAPER_RPC_TESTINCR_US: f64 = 63.23;

/// How many calls and trials to run.
#[derive(Clone, Copy, Debug)]
pub struct TrialConfig {
    /// Calls per trial for the getpid/SMOD rows.
    pub calls_per_trial: u64,
    /// Calls per trial for the RPC row (the paper uses 10x fewer).
    pub rpc_calls_per_trial: u64,
    /// Number of trials.
    pub trials: usize,
}

impl TrialConfig {
    /// The paper's configuration (1,000,000 calls; 100,000 for RPC; 10 trials).
    pub fn paper() -> TrialConfig {
        TrialConfig {
            calls_per_trial: 1_000_000,
            rpc_calls_per_trial: 100_000,
            trials: 10,
        }
    }

    /// A quick configuration for CI and smoke runs.
    pub fn quick() -> TrialConfig {
        TrialConfig {
            calls_per_trial: 20_000,
            rpc_calls_per_trial: 2_000,
            trials: 5,
        }
    }
}

/// One row of the Figure 8 table.
#[derive(Clone, Debug)]
pub struct Figure8Row {
    /// Configuration name.
    pub name: String,
    /// Calls per trial.
    pub calls_per_trial: u64,
    /// Number of trials.
    pub trials: usize,
    /// Mean cost per call in microseconds.
    pub mean_us: f64,
    /// Standard deviation across trials in microseconds.
    pub stdev_us: f64,
    /// The paper's corresponding measurement, if any.
    pub paper_us: Option<f64>,
}

fn mean_and_stdev(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// A complete report: the simulated table and the native table.
#[derive(Clone, Debug)]
pub struct Figure8Report {
    /// Rows measured on the simulated backend.
    pub simulated: Vec<Figure8Row>,
    /// Rows measured in wall-clock time on the host.
    pub native: Vec<Figure8Row>,
}

impl Figure8Report {
    /// Render both tables in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let render_table = |title: &str, rows: &[Figure8Row]| -> String {
            let mut s = format!("\n== {title} ==\n");
            s.push_str(&format!(
                "{:<22} {:>12} {:>8} {:>14} {:>16} {:>12}\n",
                "Test Function",
                "Calls/Trial",
                "Trials",
                "microsec/CALL",
                "stdev(microsec)",
                "paper(us)"
            ));
            for r in rows {
                s.push_str(&format!(
                    "{:<22} {:>12} {:>8} {:>14.6} {:>16.6} {:>12}\n",
                    r.name,
                    r.calls_per_trial,
                    r.trials,
                    r.mean_us,
                    r.stdev_us,
                    r.paper_us
                        .map(|p| format!("{p:.3}"))
                        .unwrap_or_else(|| "-".to_string()),
                ));
            }
            s
        };
        out.push_str(&render_table(
            "Figure 8 (simulated backend, P-III/OpenBSD 3.6 cost calibration)",
            &self.simulated,
        ));
        out.push_str(&render_table(
            "Figure 8 (native backend, wall-clock on this host)",
            &self.native,
        ));
        if let (Some(smod), Some(rpc)) = (
            self.native
                .iter()
                .find(|r| r.name.contains("SMOD(test-incr)")),
            self.native.iter().find(|r| r.name.contains("RPC")),
        ) {
            out.push_str(&format!(
                "\nnative RPC / SMOD ratio: {:.1}x (paper: {:.1}x)\n",
                rpc.mean_us / smod.mean_us,
                PAPER_RPC_TESTINCR_US / PAPER_SMOD_TESTINCR_US
            ));
        }
        if let (Some(getpid), Some(smod)) = (
            self.simulated.iter().find(|r| r.name.contains("getpid()")),
            self.simulated
                .iter()
                .find(|r| r.name.contains("SMOD(test-incr)")),
        ) {
            out.push_str(&format!(
                "simulated SMOD / getpid ratio: {:.1}x (paper: {:.1}x)\n",
                smod.mean_us / getpid.mean_us,
                PAPER_SMOD_TESTINCR_US / PAPER_GETPID_US
            ));
        }
        out
    }
}

const CREDENTIAL: &[u8] = b"figure8-credential";

/// Run the simulated rows (native getpid, SMOD-getpid, SMOD-testincr) using
/// the kernel simulator's clock.  Deterministic.
pub fn run_simulated(config: TrialConfig) -> Vec<Figure8Row> {
    let mut world = SimWorld::new();
    world
        .install(&libc_module(CREDENTIAL))
        .expect("install libc");
    let client = world
        .spawn_client(
            "fig8-client",
            Credential::user(1000, 100).with_smod_credential("libc", CREDENTIAL),
        )
        .expect("spawn client");
    world.connect(client, "libc", 0).expect("connect");

    // The simulator is deterministic, so "trials" differ only through the
    // measured-loop structure; we still run them to mirror the methodology.
    let mut rows = Vec::new();
    let mut measure =
        |name: &str, paper: Option<f64>, per_call: &mut dyn FnMut(&mut SimWorld, u64)| {
            let mut samples = Vec::with_capacity(config.trials);
            for _ in 0..config.trials {
                let start = world.now_ns();
                for i in 0..config.calls_per_trial {
                    per_call(&mut world, i);
                }
                let elapsed = world.now_ns() - start;
                samples.push(elapsed as f64 / config.calls_per_trial as f64 / 1000.0);
            }
            let (mean, stdev) = mean_and_stdev(&samples);
            rows.push(Figure8Row {
                name: name.to_string(),
                calls_per_trial: config.calls_per_trial,
                trials: config.trials,
                mean_us: mean,
                stdev_us: stdev,
                paper_us: paper,
            });
        };

    measure("getpid()", Some(PAPER_GETPID_US), &mut |w, _| {
        w.native_getpid(client).unwrap();
    });
    measure(
        "SMOD(SMOD-getpid)",
        Some(PAPER_SMOD_GETPID_US),
        &mut |w, _| {
            w.call(client, "getpid", &[]).unwrap();
        },
    );
    measure(
        "SMOD(test-incr)",
        Some(PAPER_SMOD_TESTINCR_US),
        &mut |w, i| {
            w.call(client, "testincr", &i.to_le_bytes()).unwrap();
        },
    );
    rows
}

/// Run all four rows in wall-clock time on the host.
pub fn run_native(config: TrialConfig) -> Vec<Figure8Row> {
    let mut rows = Vec::new();
    let mut push_row = |name: &str, paper: Option<f64>, calls: u64, samples: Vec<f64>| {
        let (mean, stdev) = mean_and_stdev(&samples);
        rows.push(Figure8Row {
            name: name.to_string(),
            calls_per_trial: calls,
            trials: samples.len(),
            mean_us: mean,
            stdev_us: stdev,
            paper_us: paper,
        });
    };

    // Native getpid.
    let mut samples = Vec::new();
    for _ in 0..config.trials {
        let start = Instant::now();
        for _ in 0..config.calls_per_trial {
            std::hint::black_box(native_getpid());
        }
        samples.push(start.elapsed().as_secs_f64() * 1e6 / config.calls_per_trial as f64);
    }
    push_row(
        "getpid()",
        Some(PAPER_GETPID_US),
        config.calls_per_trial,
        samples,
    );

    // SMOD rows over the native backend.
    let session = NativeSession::start(
        &NativeModule::benchmark_module(CREDENTIAL),
        CREDENTIAL,
        4096,
    )
    .expect("native session");
    for (name, paper, func) in [
        ("SMOD(SMOD-getpid)", PAPER_SMOD_GETPID_US, "getpid"),
        ("SMOD(test-incr)", PAPER_SMOD_TESTINCR_US, "testincr"),
    ] {
        let mut samples = Vec::new();
        for _ in 0..config.trials {
            let start = Instant::now();
            for i in 0..config.calls_per_trial {
                std::hint::black_box(session.call(func, &i.to_le_bytes()).unwrap());
            }
            samples.push(start.elapsed().as_secs_f64() * 1e6 / config.calls_per_trial as f64);
        }
        push_row(name, Some(paper), config.calls_per_trial, samples);
    }

    // RPC(test-incr) over a local Unix socket.
    let server = spawn_local_testincr_server().expect("rpc server");
    let rpc = TestIncrClient::connect(server.endpoint()).expect("rpc client");
    rpc.incr(0).unwrap();
    let mut samples = Vec::new();
    for _ in 0..config.trials {
        let start = Instant::now();
        for i in 0..config.rpc_calls_per_trial {
            std::hint::black_box(rpc.incr(i).unwrap());
        }
        samples.push(start.elapsed().as_secs_f64() * 1e6 / config.rpc_calls_per_trial as f64);
    }
    push_row(
        "RPC(test-incr)",
        Some(PAPER_RPC_TESTINCR_US),
        config.rpc_calls_per_trial,
        samples,
    );
    rows
}

/// Run both backends and assemble the report.
pub fn run_figure8(config: TrialConfig) -> Figure8Report {
    Figure8Report {
        simulated: run_simulated(config),
        native: run_native(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_rows_reproduce_the_papers_shape() {
        let config = TrialConfig {
            calls_per_trial: 200,
            rpc_calls_per_trial: 50,
            trials: 3,
        };
        let rows = run_simulated(config);
        assert_eq!(rows.len(), 3);
        let getpid = rows[0].mean_us;
        let smod_getpid = rows[1].mean_us;
        let smod_incr = rows[2].mean_us;
        // The simulated clock is deterministic, so this is a tripwire, not
        // a band: every row within 15% of the paper's measurement (a
        // context-switch pair charged twice read +35%).
        for row in &rows {
            let paper = row.paper_us.expect("every simulated row has a paper value");
            let off = (row.mean_us - paper) / paper;
            assert!(
                off.abs() < 0.15,
                "{}: {:.3} µs is {:+.1}% off the paper's {paper} µs",
                row.name,
                row.mean_us,
                off * 100.0
            );
        }
        // SMOD ≈ 10x slower than a bare syscall.
        let ratio = smod_incr / getpid;
        assert!((5.0..20.0).contains(&ratio), "ratio {ratio}");
        // SMOD-getpid and SMOD-testincr within ~10% of each other.
        assert!((smod_getpid - smod_incr).abs() / smod_incr < 0.15);
    }

    #[test]
    fn native_rows_preserve_the_ordering() {
        let config = TrialConfig {
            calls_per_trial: 500,
            rpc_calls_per_trial: 200,
            trials: 2,
        };
        let rows = run_native(config);
        assert_eq!(rows.len(), 4);
        let getpid = rows[0].mean_us;
        let smod = rows[2].mean_us;
        let rpc = rows[3].mean_us;
        assert!(getpid < smod, "getpid {getpid} vs smod {smod}");
        assert!(smod < rpc * 2.0, "smod {smod} vs rpc {rpc}");
    }

    #[test]
    fn report_renders_both_tables() {
        let config = TrialConfig {
            calls_per_trial: 100,
            rpc_calls_per_trial: 50,
            trials: 2,
        };
        let report = run_figure8(config);
        let text = report.render();
        assert!(text.contains("Figure 8 (simulated"));
        assert!(text.contains("Figure 8 (native"));
        assert!(text.contains("SMOD(test-incr)"));
        assert!(text.contains("RPC(test-incr)"));
        assert!(text.contains("microsec/CALL"));
    }

    #[test]
    fn trial_configs() {
        let paper = TrialConfig::paper();
        assert_eq!(paper.calls_per_trial, 1_000_000);
        assert_eq!(paper.rpc_calls_per_trial, 100_000);
        assert_eq!(paper.trials, 10);
        let quick = TrialConfig::quick();
        assert!(quick.calls_per_trial < paper.calls_per_trial);
    }
}
