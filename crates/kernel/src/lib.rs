//! # secmod-kernel
//!
//! A deterministic, user-space simulation of the operating-system substrate
//! the SecModule paper modifies: an OpenBSD-flavoured kernel with a process
//! table, credentials, SYSV message queues, a syscall cost model, and — the
//! paper's contribution — the `smod_*` syscall family of Figure 4:
//!
//! ```text
//! 301 sys_smod_find(name, version)
//! 303 sys_smod_session_info(sinfo)        (handle only)
//! 304 sys_smod_handle_info(hinfo)         (client only)
//! 305 sys_smod_add(smodinfo)
//! 306 sys_smod_remove(m_id, credential, credential_size)
//! 307 sys_smod_call(framep, rtnaddr, m_id, funcID)
//! 320 sys_smod_start_session(descp)
//! ```
//!
//! The simulator is cycle-agnostic but *time-modelled*: every kernel
//! operation charges a configurable cost ([`cost::CostModel`]) to a
//! simulated clock, calibrated so that the default configuration reproduces
//! the magnitude of the paper's Figure 8 measurements (a 599 MHz Pentium
//! III running OpenBSD 3.6).  The `secmod-core` crate drives this kernel
//! for its simulated backend, and times the same kernel's calls on the
//! host's wall clock for its native rows.
//!
//! Security behaviours from the paper that the simulator enforces:
//!
//! * handles and clients of an smod pair never dump core
//!   ([`proc::ProcFlags::no_coredump`]),
//! * `ptrace` of any process associated with a handle is denied,
//! * module text is mapped only into the handle, never the client,
//! * credentials are re-verified on *every* `smod_call`,
//! * `getpid`/`wait`/signals refer to the client, not the handle,
//! * `execve` detaches the session and kills the handle; `fork` re-creates
//!   a fresh handle for the child.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod clock;
pub mod cost;
pub mod cred;
pub mod dispatch;
pub mod errno;
pub mod kernel;
pub mod msgqueue;
pub mod plane;
pub mod proc;
pub mod smod;
pub mod smodreg;
pub mod sweep;
pub mod table;
pub mod trace;

pub use batch::{DrainReport, BATCH_CHUNK};
pub use clock::SimClock;
pub use cost::CostModel;
pub use cred::Credential;
pub use dispatch::{DispatchError, DispatchOutcome};
pub use errno::Errno;
pub use kernel::Kernel;
pub use plane::{DispatchPlane, PlaneConfig, PlaneHandle, PlaneStats, SubmitBatch};
pub use proc::{Pid, ProcFlags, ProcState, Process};
pub use smod::{Session, SessionId, SessionState, SessionTable, SmodCallArgs};
pub use smodreg::RegisteredModule;
pub use trace::{Event, Tracer};

/// Result alias for syscalls: either a value or an errno.
pub type SysResult<T> = std::result::Result<T, Errno>;
