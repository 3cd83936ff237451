//! The Figure 7 analogue: a description of the system the measurements ran
//! on — both the simulated machine (paper calibration) and the real host.

use secmod_kernel::CostModel;

/// Render the paper's Figure 7-style block for the simulated machine.
pub fn simulated_system_info(cost: &CostModel) -> String {
    format!(
        "Simulated SecModule kernel (calibration target: OpenBSD 3.6, Intel Pentium III 599 MHz, 512KB L2)\n\
         cpu0: simulated, syscall trap = {} ns, trivial syscall = {} ns\n\
         context switch = {} ns, SYSV msg op = {} ns, page fault = {} ns\n\
         policy evaluation = {} ns/node, credential check = {} ns\n\
         CLOCK_TICK_PER_SECOND is 100 (cost model granularity: 1 ns)\n",
        cost.syscall_trap_ns,
        cost.trivial_syscall_ns,
        cost.context_switch_ns,
        cost.msg_op_ns,
        cost.page_fault_ns,
        cost.policy_per_node_ns,
        cost.credential_check_ns,
    )
}

/// Render a best-effort description of the real host (for the wall-clock
/// rows).
pub fn host_system_info() -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("unknown").trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    let mem_kb = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("MemTotal")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0);
    format!(
        "Host system (wall-clock measurements)\n\
         cpu0: {model} ({cpus} hardware threads)\n\
         real mem = {} MB\n\
         os: {}\n",
        mem_kb / 1024,
        std::env::consts::OS,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_info_mentions_the_papers_machine() {
        let info = simulated_system_info(&CostModel::default());
        assert!(info.contains("Pentium III"));
        assert!(info.contains("OpenBSD 3.6"));
        assert!(info.contains("syscall trap"));
    }

    #[test]
    fn host_info_is_nonempty() {
        let info = host_system_info();
        assert!(info.contains("cpu0"));
        assert!(info.contains("os:"));
    }
}
