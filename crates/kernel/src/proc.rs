//! Simulated processes.

use crate::cred::Credential;
use crate::smod::SessionId;
use secmod_module::ModuleId;
use secmod_vm::VmSpace;
use serde::{Deserialize, Serialize};

/// A process identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Pid(pub u32);

impl std::fmt::Display for Pid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Scheduler-visible process state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// Currently runnable (or running; the simulator does not distinguish).
    Runnable,
    /// Blocked waiting for a message on the given queue.
    BlockedOnMsg(u32),
    /// Blocked waiting for a child to exit.
    BlockedOnWait,
    /// Exited with the given status; waiting to be reaped.
    Zombie(i32),
}

/// Per-process flags, including the SecModule restrictions of §3.1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcFlags {
    /// Never produce a core image on crash ("Processes no longer generate a
    /// core image when they crash.  Certainly no Handle process should!").
    pub no_coredump: bool,
    /// Refuse all `ptrace` attach attempts ("ptrace() and related kernel
    /// calls must not allow tracing of any processes associated with the
    /// handle").
    pub no_ptrace: bool,
    /// This process is a SecModule client.
    pub smod_client: bool,
    /// This process is a SecModule handle (co-process).
    pub smod_handle: bool,
}

/// The link between one member of an smod pair and its peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmodLink {
    /// The session this process belongs to.
    pub session: SessionId,
    /// The peer process (handle for a client, client for a handle).
    pub peer: Pid,
    /// The module the session grants access to.
    pub module: ModuleId,
}

/// A simulated process.
#[derive(Debug)]
pub struct Process {
    /// Process id.
    pub pid: Pid,
    /// Parent process id.
    pub ppid: Pid,
    /// Command name.
    pub name: String,
    /// Credentials.
    pub cred: Credential,
    /// The address space.
    pub vm: VmSpace,
    /// Scheduler state.
    pub state: ProcState,
    /// SecModule-related flags.
    pub flags: ProcFlags,
    /// If part of an smod pair, the link to the peer.
    pub smod: Option<SmodLink>,
    /// Accumulated CPU time in simulated nanoseconds.
    pub cpu_time_ns: u64,
    /// Whether the process has produced a core dump (only possible when
    /// `flags.no_coredump` is false).
    pub dumped_core: bool,
}

impl Process {
    /// Create a process around an existing address space.
    pub fn new(pid: Pid, ppid: Pid, name: &str, cred: Credential, vm: VmSpace) -> Process {
        Process {
            pid,
            ppid,
            name: name.to_string(),
            cred,
            vm,
            state: ProcState::Runnable,
            flags: ProcFlags::default(),
            smod: None,
            cpu_time_ns: 0,
            dumped_core: false,
        }
    }

    /// Is the process alive (not a zombie)?
    pub fn is_alive(&self) -> bool {
        !matches!(self.state, ProcState::Zombie(_))
    }

    /// Simulate a crash: the process terminates; whether a core image is
    /// produced depends on the no-coredump flag.  Returns `true` if a core
    /// file would have been written.
    pub fn crash(&mut self, signal: i32) -> bool {
        self.state = ProcState::Zombie(128 + signal);
        if self.flags.no_coredump {
            false
        } else {
            self.dumped_core = true;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secmod_vm::Layout;
    use std::sync::Arc;

    fn vm(name: &str) -> VmSpace {
        VmSpace::new_user(name, Layout::tiny(), Arc::new(vec![0u8; 64]), 2, 2).unwrap()
    }

    #[test]
    fn process_lifecycle_basics() {
        let mut p = Process::new(
            Pid(2),
            Pid(1),
            "client",
            Credential::user(1000, 100),
            vm("c"),
        );
        assert!(p.is_alive());
        assert!(p.smod.is_none());
        assert_eq!(p.pid.to_string(), "pid2");
        p.state = ProcState::Zombie(0);
        assert!(!p.is_alive());
    }

    #[test]
    fn ordinary_process_dumps_core_on_crash() {
        let mut p = Process::new(Pid(3), Pid(1), "buggy", Credential::user(1, 1), vm("b"));
        assert!(p.crash(11));
        assert!(p.dumped_core);
        assert!(!p.is_alive());
    }

    #[test]
    fn no_coredump_flag_suppresses_core() {
        let mut p = Process::new(Pid(4), Pid(1), "handle", Credential::root(), vm("h"));
        p.flags.no_coredump = true;
        assert!(!p.crash(11));
        assert!(!p.dumped_core);
        assert!(!p.is_alive());
    }
}
