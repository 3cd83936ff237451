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
//! `run_simulated` reproduces the first three rows on the deterministic,
//! paper-calibrated kernel simulator (the RPC row has no simulated
//! equivalent — it is a real userland RPC stack, measured natively).
//! `run_native` measures the same rows in wall-clock time on the host.
//! Its SMOD rows time the simulated rows' own kernel call, crossed two
//! ways: `sys_smod_call` on the calling thread, and a depth-1 round trip
//! through a one-drainer dispatch plane ([`CrossThread`]). Absolute values
//! reflect modern hardware; the *ordering* and rough ratios are the
//! reproduction target.

use secmod_core::libc_retrofit::libc_module;
use secmod_core::native::{native_getpid, CrossThread};
use secmod_core::prelude::*;
use secmod_kernel::SmodCallArgs;
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
    /// Cost per call of the fastest trial in microseconds (the reading
    /// host noise disturbs least).
    pub fastest_us: f64,
    /// The paper's corresponding measurement, if any.
    pub paper_us: Option<f64>,
}

impl Figure8Row {
    /// Summarise one µs/call sample per trial.
    fn new(name: &str, paper_us: Option<f64>, calls_per_trial: u64, samples: &[f64]) -> Figure8Row {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        Figure8Row {
            name: name.to_string(),
            calls_per_trial,
            trials: samples.len(),
            mean_us: mean,
            stdev_us: var.sqrt(),
            fastest_us: samples.iter().copied().fold(f64::INFINITY, f64::min),
            paper_us,
        }
    }
}

/// The row named exactly `name`.
fn row<'a>(rows: &'a [Figure8Row], name: &str) -> Option<&'a Figure8Row> {
    rows.iter().find(|r| r.name == name)
}

/// The SMOD rows: name, paper value, the libc symbol they call.
const SMOD_ROWS: [(&str, f64, &str); 2] = [
    ("SMOD(SMOD-getpid)", PAPER_SMOD_GETPID_US, "getpid"),
    ("SMOD(test-incr)", PAPER_SMOD_TESTINCR_US, "testincr"),
];

/// The two ways the wall-clock SMOD rows cross into the kernel, as their
/// row names spell them.
const CROSSINGS: [&str; 2] = ["in-thread", "cross-thread"];

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
            let width = rows.iter().map(|r| r.name.len()).fold(22, usize::max);
            let mut s = format!("\n== {title} ==\n");
            s.push_str(&format!(
                "{:<width$} {:>12} {:>8} {:>14} {:>16} {:>12}\n",
                "Test Function",
                "Calls/Trial",
                "Trials",
                "microsec/CALL",
                "stdev(microsec)",
                "paper(us)"
            ));
            for r in rows {
                s.push_str(&format!(
                    "{:<width$} {:>12} {:>8} {:>14.6} {:>16.6} {:>12}\n",
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
            "Figure 8 (native crossings into the kernel, wall-clock on this host)",
            &self.native,
        ));
        out.push('\n');
        for crossing in CROSSINGS {
            let smod = format!("SMOD(test-incr) {crossing}");
            if let (Some(smod), Some(rpc)) = (
                row(&self.native, &smod),
                row(&self.native, "RPC(test-incr)"),
            ) {
                out.push_str(&format!(
                    "native RPC / {} ratio: {:.1}x (paper: {:.1}x)\n",
                    smod.name,
                    rpc.mean_us / smod.mean_us,
                    PAPER_RPC_TESTINCR_US / PAPER_SMOD_TESTINCR_US
                ));
            }
        }
        if let (Some(getpid), Some(smod)) = (
            row(&self.simulated, "getpid()"),
            row(&self.simulated, "SMOD(test-incr)"),
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

/// A world with the libc module installed and one connected client.
fn libc_world() -> (SimWorld, Pid) {
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
    (world, client)
}

/// Run the simulated rows (native getpid, SMOD-getpid, SMOD-testincr) using
/// the kernel simulator's clock.  Deterministic.
fn run_simulated(config: TrialConfig) -> Vec<Figure8Row> {
    let (mut world, client) = libc_world();

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
            rows.push(Figure8Row::new(
                name,
                paper,
                config.calls_per_trial,
                &samples,
            ));
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

/// Run the wall-clock rows on the host: `getpid()`, each SMOD row once
/// per crossing, and RPC(test-incr).
fn run_native(config: TrialConfig) -> Vec<Figure8Row> {
    let mut rows = Vec::new();
    let mut timed = |name: &str, paper: f64, calls: u64, per_call: &mut dyn FnMut(u64)| {
        let mut samples = Vec::with_capacity(config.trials);
        for _ in 0..config.trials {
            let start = Instant::now();
            for i in 0..calls {
                per_call(i);
            }
            samples.push(start.elapsed().as_secs_f64() * 1e6 / calls as f64);
        }
        rows.push(Figure8Row::new(name, Some(paper), calls, &samples));
    };
    let calls = config.calls_per_trial;

    timed("getpid()", PAPER_GETPID_US, calls, &mut |_| {
        std::hint::black_box(native_getpid());
    });

    // The SMOD rows: the simulated rows' kernel call, on the host clock.
    let (world, client) = libc_world();
    let m_id = world.module_id("libc").expect("libc installed");
    let func_id = |symbol| world.func_id(client, symbol).expect("libc symbol");
    for (name, paper, symbol) in SMOD_ROWS {
        let func_id = func_id(symbol);
        timed(&format!("{name} in-thread"), paper, calls, &mut |i| {
            let call = SmodCallArgs {
                m_id,
                func_id,
                frame_pointer: 0xBFFF_0000,
                return_address: 0x0000_1000,
                args: i.to_le_bytes().to_vec(),
            };
            let reply = world.kernel.sys_smod_call(client, call);
            std::hint::black_box(reply.expect("libc allows the client every call"));
        });
    }
    let mut cross = CrossThread::start(&world, client).expect("cross-thread crossing");
    for (name, paper, symbol) in SMOD_ROWS {
        let func_id = func_id(symbol);
        timed(&format!("{name} cross-thread"), paper, calls, &mut |i| {
            let reply = cross.call(func_id, &i.to_le_bytes());
            std::hint::black_box(reply.expect("libc allows the client every call"));
        });
    }
    // Stop the drainer before the RPC row shares the host with it.
    drop(cross);

    // RPC(test-incr) over a local Unix socket.
    let server = spawn_local_testincr_server().expect("rpc server");
    let rpc = TestIncrClient::connect(server.endpoint()).expect("rpc client");
    rpc.incr(0).expect("rpc warm-up call");
    timed(
        "RPC(test-incr)",
        PAPER_RPC_TESTINCR_US,
        config.rpc_calls_per_trial,
        &mut |i| {
            std::hint::black_box(rpc.incr(i).expect("rpc call"));
        },
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
    use std::sync::Mutex;

    /// Held by each test that runs a table: two of them at once on a
    /// small host would time each other's spinning crossings, and a
    /// simulated run's CPU time is taken from a wall-clock one.
    static HOST_CLOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn simulated_rows_reproduce_the_papers_shape() {
        let _host = HOST_CLOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
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
        let _host = HOST_CLOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let config = TrialConfig {
            calls_per_trial: 500,
            rpc_calls_per_trial: 200,
            trials: 2,
        };
        let rows = run_native(config);
        assert_eq!(rows.len(), 6);
        let fastest = |name: &str| row(&rows, name).expect(name).fastest_us;
        let getpid = fastest("getpid()");
        let rpc = fastest("RPC(test-incr)");
        for crossing in CROSSINGS {
            let smod = fastest(&format!("SMOD(test-incr) {crossing}"));
            assert!(getpid < smod, "getpid {getpid} vs {crossing} smod {smod}");
            assert!(smod < rpc, "{crossing} smod {smod} vs rpc {rpc}");
        }
    }

    #[test]
    fn report_renders_both_tables() {
        let _host = HOST_CLOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
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
        for crossing in CROSSINGS {
            let ratio = format!("native RPC / SMOD(test-incr) {crossing} ratio");
            assert_eq!(text.matches(&ratio).count(), 1, "{ratio}");
        }
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
