//! The kernel proper: state plus the ordinary (non-SecModule) syscalls.
//!
//! The SecModule syscall family of Figure 4 is implemented in
//! [`crate::smod`] as further methods on [`Kernel`].
//!
//! # Concurrency
//!
//! Every syscall takes `&self`: the kernel is a concurrency-bearing core
//! that many threads drive at once. Who holds which lock:
//!
//! * [`ProcessTable`] — 16 `RwLock`-sharded pid maps (shard write-locked
//!   only by spawn/fork/reap), one `Mutex` per process body. Pair
//!   operations (dispatch, force-share) lock both members in ascending
//!   pid order.
//! * [`SmodRegistry`] — `RwLock` around the module table; sessions pin
//!   their module's `Arc` at establishment, so dispatch never touches the
//!   registry lock at all.
//! * sessions — 16 `RwLock`-sharded session maps by id, and 16 more by
//!   client pid (the client index a call resolves its caller through);
//!   the handshake state is an atomic and the call counter is written
//!   under the pair lock, inside the shared `Session`, which also pins
//!   both processes' lock handles for the dispatch pair.
//! * [`MsgSubsystem`], [`Tracer`], [`secmod_crypto::KeyStore`] — each
//!   behind its own `Mutex` (tracing is skipped entirely when disabled).
//! * clock and context-switch counter — cache-line-striped atomics
//!   (stripe by charged pid, sum on read); `smod_epoch` — one atomic,
//!   loaded on the hot path and RMW'd only by detach/remove.
//!
//! Lock ordering: process-map shard / session shard read → process pair;
//! no path holds a process lock while taking a registry or session-id
//! *write* lock. The one session lock taken under a process lock is a
//! client-index shard's write lock, by `sys_smod_start_session` under the
//! client's lock; no path takes another lock while it holds a session
//! shard.

use crate::clock::{SimClock, StripedCounter};
use crate::cost::CostModel;
use crate::cred::Credential;
use crate::errno::Errno;
use crate::msgqueue::{Message, MsgQueueId, MsgSubsystem};
use crate::proc::{Pid, ProcState, Process};
use crate::smod::SessionTable;
use crate::smodreg::SmodRegistry;
use crate::table::ProcessTable;
use crate::trace::{Event, Tracer};
use crate::SysResult;
use secmod_crypto::KeyStore;
use secmod_obs::DispatchMetrics;
use secmod_policy::CacheConfig;
use secmod_vm::obreak::sys_obreak;
use secmod_vm::{Layout, Vaddr, VmSpace};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// The simulated kernel.
pub struct Kernel {
    /// All processes.
    pub procs: ProcessTable,
    /// SYSV message queues.
    pub msgs: MsgSubsystem,
    /// The simulated clock.
    pub clock: SimClock,
    /// The cost model used to charge operations to the clock (immutable
    /// after boot).
    pub cost: CostModel,
    /// The kernel key store (module keys live only here).
    pub keystore: KeyStore,
    /// The SecModule registry; each registered module embeds its shared
    /// decision-gateway.
    pub registry: SmodRegistry,
    /// Active SecModule sessions.
    pub sessions: SessionTable,
    /// Event tracer.
    pub tracer: Tracer,
    /// Default address-space layout for new processes (immutable after
    /// boot).
    pub layout: Layout,
    /// Decision-cache sizing applied to every module registered through
    /// `sys_smod_add`. Set before registering modules;
    /// [`CacheConfig::disabled`] yields the uncached baseline kernel.
    pub gate_config: CacheConfig,
    /// The dispatch observability registry: per-flavor latency
    /// histograms plus counters, fed by every dispatch path (syscall,
    /// batch, sweep, plane, async). Shared as an `Arc` so the plane's
    /// drainer threads and the async frontend record into the same
    /// registry.
    pub metrics: Arc<DispatchMetrics>,
    pub(crate) next_session: AtomicU32,
    context_switches: StripedCounter,
    /// Monotone epoch bumped by every SecModule event that can invalidate a
    /// cached access decision (`sys_smod_remove`, `smod_detach`). The
    /// per-module gateways fold this into their cache keys; see
    /// `Kernel::smod_epoch`.
    pub(crate) smod_epoch: AtomicU64,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("processes", &self.procs.len())
            .field("modules", &self.registry.len())
            .field("sessions", &self.sessions.len())
            .field("sim_time_ns", &self.clock.now_ns())
            .finish()
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Kernel::new(CostModel::default())
    }
}

impl Kernel {
    /// Boot a kernel with the given cost model and the OpenBSD i386 layout.
    pub fn new(cost: CostModel) -> Kernel {
        Kernel {
            procs: ProcessTable::new(),
            msgs: MsgSubsystem::new(),
            clock: SimClock::new(),
            cost,
            keystore: KeyStore::new(b"secmodule-kernel-keystore"),
            registry: SmodRegistry::new(),
            sessions: SessionTable::new(),
            tracer: Tracer::new(),
            layout: Layout::openbsd_i386(),
            gate_config: CacheConfig::default(),
            metrics: Arc::new(DispatchMetrics::new()),
            next_session: AtomicU32::new(1),
            context_switches: StripedCounter::new(),
            smod_epoch: AtomicU64::new(0),
        }
    }

    /// The SecModule invalidation epoch: strictly increases whenever a
    /// module is removed or a session detaches, so any decision cached
    /// against an earlier epoch is dead on arrival.
    pub fn smod_epoch(&self) -> u64 {
        self.smod_epoch.load(SeqCst)
    }

    /// Count of context switches performed (for reporting).
    pub fn context_switches(&self) -> u64 {
        self.context_switches.sum()
    }

    /// Render the dispatch-metrics registry, first mirroring the
    /// tracer's evicted-event count into it — the report path is the one
    /// place a silently truncated trace must become visible.
    pub fn metrics_report(&self) -> String {
        self.metrics.trace_dropped.set(self.tracer.dropped_events());
        self.metrics.text_report()
    }

    /// Boot with a custom decision-cache sizing for registered modules
    /// ([`CacheConfig::disabled`] gives the uncached-baseline kernel).
    pub fn with_gate_config(cost: CostModel, gate_config: CacheConfig) -> Kernel {
        let mut k = Kernel::new(cost);
        k.gate_config = gate_config;
        k
    }

    /// Charge `ns` of kernel time to the clock and to `pid`'s CPU time.
    /// The clock stripe is chosen by the pid so concurrent charges from
    /// different processes do not contend on one counter cache line.
    pub(crate) fn charge(&self, pid: Pid, ns: u64) {
        self.clock.advance_striped(pid.0 as u64, ns);
        let _ = self.procs.with_mut(pid, |p| p.cpu_time_ns += ns);
    }

    /// Count `n` context switches on `pid`'s stripe. Their time is not
    /// charged here: the dispatch cost formulas (`smod_call_overhead`,
    /// `batched_dispatch_ns`, `sweep_dispatch_ns`) already contain the
    /// switch pair.
    pub(crate) fn context_switch_n(&self, pid: Pid, n: u64) {
        self.context_switches.add(pid.0 as u64, n);
    }

    // ----------------------------------------------------------------
    // Process management
    // ----------------------------------------------------------------

    /// Create a user process (the moral equivalent of `exec` from init):
    /// a fresh address space with the given program text.
    pub fn spawn_process(
        &self,
        name: &str,
        cred: Credential,
        text: Vec<u8>,
        heap_pages: u64,
        stack_pages: u64,
    ) -> SysResult<Pid> {
        let vm = VmSpace::new_user(name, self.layout, Arc::new(text), heap_pages, stack_pages)
            .map_err(Errno::from)?;
        Ok(self.procs.spawn(Pid(0), name, cred, vm))
    }

    /// `getpid()`.  For a handle process this returns the *client's* pid, as
    /// §4.3 requires ("getpid() and related calls must return the PIDs
    /// related to the client, not the handle!").
    pub fn sys_getpid(&self, pid: Pid) -> SysResult<Pid> {
        let cost = self.cost.getpid_cost();
        self.charge(pid, cost);
        self.procs.with(pid, |p| {
            if p.flags.smod_handle {
                if let Some(link) = p.smod {
                    return link.peer;
                }
            }
            pid
        })
    }

    /// `fork()`: duplicate the calling process (copy-on-write address
    /// space).  The child does not inherit any SecModule session; the
    /// paper's special handling (re-creating a handle for the child) is
    /// provided by [`Kernel::sys_smod_fork`].
    pub fn sys_fork(&self, parent: Pid) -> SysResult<Pid> {
        let fork_cost = self.cost.fork_ns;
        self.charge(parent, fork_cost);
        let child_pid = self.procs.allocate_pid();
        let child = self.procs.with(parent, |parent_proc| {
            let child_name = format!("{}-child", parent_proc.name);
            let mut child_vm = parent_proc.vm.fork(&child_name);
            // The child is not (yet) part of any smod pair.
            if parent_proc.vm.smod_share_range().is_some() {
                // Clear the inherited share marker; a new session must be
                // set up. VmSpace keeps the marker private; resetting the
                // stats is all that is needed — the child has no peer until
                // a session exists.
                child_vm.stats.reset();
            }
            let mut child = Process::new(
                child_pid,
                parent,
                &child_name,
                parent_proc.cred.clone(),
                child_vm,
            );
            child.flags.no_coredump = parent_proc.flags.no_coredump;
            child
        })?;
        self.procs.insert(child);
        Ok(child_pid)
    }

    /// `exit()`: the process becomes a zombie; if it is a SecModule client
    /// its handle is killed and the session removed.
    pub fn sys_exit(&self, pid: Pid, status: i32) -> SysResult<()> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(pid, trap);
        // Detach any smod session first (kills the handle).
        if self.procs.with(pid, |p| p.smod.is_some())? {
            self.smod_detach(pid, "client exit")?;
        }
        self.procs
            .with_mut(pid, |p| p.state = ProcState::Zombie(status))
    }

    /// `wait()`: reap a zombie child.  Handle processes are invisible to
    /// `wait` (§4.3: scheduling-related calls "must be modified such that
    /// they effect the client, not the handle").
    pub fn sys_wait(&self, parent: Pid) -> SysResult<(Pid, i32)> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(parent, trap);
        // One pass over the table: remember whether any child exists at
        // all (for ECHILD) while stopping at the first reapable zombie.
        let mut has_child = false;
        let zombie = self.procs.scan_first(|p| {
            if p.ppid != parent {
                return None;
            }
            has_child = true;
            if p.flags.smod_handle {
                return None;
            }
            match p.state {
                ProcState::Zombie(status) => Some((p.pid, status)),
                _ => None,
            }
        });
        if !has_child && zombie.is_none() {
            return Err(Errno::ECHILD);
        }
        match zombie {
            Some((pid, status)) => {
                self.procs.remove(pid);
                Ok((pid, status))
            }
            None => Err(Errno::EAGAIN), // caller would block
        }
    }

    /// `kill()`: deliver a signal.  Signals aimed at handle processes are
    /// redirected to their client (§4.3: "signals … must be modified such
    /// that they effect the client, not the handle").
    pub fn sys_kill(&self, sender: Pid, target: Pid, signal: i32) -> SysResult<()> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(sender, trap);
        let redirected = self.procs.with(target, |t| {
            if t.flags.smod_handle {
                t.smod.map(|l| l.peer).unwrap_or(target)
            } else {
                target
            }
        })?;
        self.procs
            .with_mut(redirected, |t| t.pending_signals.push(signal))
    }

    /// `ptrace()` attach: denied outright for any process associated with a
    /// SecModule handle (§3.1 item 4).
    pub fn sys_ptrace_attach(&self, tracer: Pid, target: Pid) -> SysResult<()> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(tracer, trap);
        let denied = self.procs.with(target, |t| {
            t.flags.no_ptrace || t.flags.smod_handle || t.flags.smod_client
        })?;
        if denied {
            self.tracer.record(Event::PtraceDenied { tracer, target });
            return Err(Errno::EPERM);
        }
        Ok(())
    }

    /// Simulate a crash of `pid` (e.g. SIGSEGV).  Returns whether a core
    /// image was produced; for smod pair members it never is.
    pub fn crash_process(&self, pid: Pid) -> SysResult<bool> {
        let (dumped, paired) = self
            .procs
            .with_mut(pid, |p| (p.crash(11), p.smod.is_some()))?;
        if !dumped {
            self.tracer.record(Event::CoreDumpSuppressed { pid });
        }
        // Then tear down any session, which reaps a crashed handle.
        if paired {
            self.smod_detach_either(pid, "crash")?;
        }
        Ok(dumped)
    }

    /// `execve()`: §4.3 — "first detach the requesting client process from
    /// the SecModule system, kill the associated handle process, and then …
    /// run sys_execve() as per normal."  The new image starts with a fresh
    /// address space and no session.
    pub fn sys_execve(&self, pid: Pid, new_name: &str, new_text: Vec<u8>) -> SysResult<()> {
        let trap = self.cost.syscall_trap_ns + self.cost.fork_ns / 2;
        self.charge(pid, trap);
        if self.procs.with(pid, |p| p.smod.is_some())? {
            self.smod_detach(pid, "execve")?;
        }
        let vm = VmSpace::new_user(new_name, self.layout, Arc::new(new_text), 4, 4)
            .map_err(Errno::from)?;
        self.procs.with_mut(pid, |p| {
            p.name = new_name.to_string();
            p.vm = vm;
            p.flags.smod_client = false;
        })
    }

    // ----------------------------------------------------------------
    // Memory
    // ----------------------------------------------------------------

    /// `obreak()` — grow or shrink the heap.  For smod pair members the new
    /// memory is a shared mapping (the paper's modified `sys_obreak`).
    pub fn sys_obreak(&self, pid: Pid, new_break: Vaddr) -> SysResult<Vaddr> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(pid, trap);
        self.procs
            .with_mut(pid, |p| {
                sys_obreak(&mut p.vm, new_break).map_err(Errno::from)
            })?
            .map(|outcome| outcome.new_brk)
    }

    /// Read bytes from a process's memory (kernel copyin), resolving shared
    /// mappings through the smod peer if necessary.
    pub fn read_user_memory(&self, pid: Pid, addr: Vaddr, len: usize) -> SysResult<Vec<u8>> {
        let peer_pid = self.procs.with(pid, |p| p.smod.map(|l| l.peer))?;
        match peer_pid {
            None => self
                .procs
                .with_mut(pid, |p| p.vm.read_bytes(addr, len).map_err(Errno::from))?,
            Some(peer) => self.procs.with_pair_mut(pid, peer, |p, q| {
                p.vm.read_bytes_with_peer(addr, len, Some(&q.vm))
                    .map_err(Errno::from)
            })?,
        }
    }

    /// Write bytes into a process's memory (kernel copyout).
    pub fn write_user_memory(&self, pid: Pid, addr: Vaddr, data: &[u8]) -> SysResult<()> {
        let peer_pid = self.procs.with(pid, |p| p.smod.map(|l| l.peer))?;
        match peer_pid {
            None => self
                .procs
                .with_mut(pid, |p| p.vm.write_bytes(addr, data).map_err(Errno::from))?,
            Some(peer) => self.procs.with_pair_mut(pid, peer, |p, q| {
                p.vm.write_bytes_with_peer(addr, data, Some(&q.vm))
                    .map_err(Errno::from)
            })?,
        }
    }

    // ----------------------------------------------------------------
    // SYSV message queues
    // ----------------------------------------------------------------

    /// `msgget(IPC_PRIVATE)`.
    pub fn sys_msgget(&self, pid: Pid) -> SysResult<MsgQueueId> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(pid, trap);
        Ok(self.msgs.msgget())
    }

    /// `msgsnd`.
    pub fn sys_msgsnd(&self, pid: Pid, queue: MsgQueueId, msg: Message) -> SysResult<()> {
        let cost = self.cost.syscall_trap_ns + self.cost.msg_op_ns;
        self.charge(pid, cost);
        self.msgs.msgsnd(queue, msg)
    }

    /// `msgrcv` (non-blocking: `EAGAIN` when nothing matches).
    pub fn sys_msgrcv(&self, pid: Pid, queue: MsgQueueId, mtype: i64) -> SysResult<Message> {
        let cost = self.cost.syscall_trap_ns + self.cost.msg_op_ns;
        self.charge(pid, cost);
        self.msgs.msgrcv(queue, mtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::new(CostModel::default())
    }

    fn spawn(k: &Kernel, name: &str) -> Pid {
        k.spawn_process(name, Credential::user(1000, 100), vec![0x90u8; 4096], 4, 4)
            .unwrap()
    }

    #[test]
    fn kernel_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<Kernel>();
    }

    #[test]
    fn getpid_charges_cost_and_returns_pid() {
        let k = kernel();
        let p = spawn(&k, "client");
        let before = k.clock.now_ns();
        assert_eq!(k.sys_getpid(p).unwrap(), p);
        assert_eq!(k.clock.now_ns() - before, k.cost.getpid_cost());
        assert_eq!(k.sys_getpid(Pid(99)).unwrap_err(), Errno::ESRCH);
    }

    #[test]
    fn fork_creates_cow_child() {
        let k = kernel();
        let parent = spawn(&k, "parent");
        let addr = Vaddr(k.layout.data_base);
        k.write_user_memory(parent, addr, b"parent").unwrap();
        let child = k.sys_fork(parent).unwrap();
        assert_ne!(parent, child);
        assert_eq!(k.read_user_memory(child, addr, 6).unwrap(), b"parent");
        k.write_user_memory(child, addr, b"child!").unwrap();
        assert_eq!(k.read_user_memory(parent, addr, 6).unwrap(), b"parent");
        assert_eq!(k.procs.with(child, |p| p.ppid).unwrap(), parent);
    }

    #[test]
    fn exit_and_wait() {
        let k = kernel();
        let parent = spawn(&k, "parent");
        let child = k.sys_fork(parent).unwrap();
        // No zombie yet: wait would block.
        assert_eq!(k.sys_wait(parent).unwrap_err(), Errno::EAGAIN);
        k.sys_exit(child, 7).unwrap();
        assert_eq!(k.sys_wait(parent).unwrap(), (child, 7));
        // Child is gone now.
        assert!(!k.procs.exists(child));
        assert_eq!(k.sys_wait(parent).unwrap_err(), Errno::ECHILD);
    }

    #[test]
    fn kill_delivers_signals() {
        let k = kernel();
        let a = spawn(&k, "a");
        let b = spawn(&k, "b");
        k.sys_kill(a, b, 15).unwrap();
        assert_eq!(
            k.procs.with(b, |p| p.pending_signals.clone()).unwrap(),
            vec![15]
        );
        assert_eq!(k.sys_kill(a, Pid(99), 9).unwrap_err(), Errno::ESRCH);
    }

    #[test]
    fn ptrace_of_ordinary_process_is_allowed() {
        let k = kernel();
        let a = spawn(&k, "debugger");
        let b = spawn(&k, "target");
        k.sys_ptrace_attach(a, b).unwrap();
    }

    #[test]
    fn obreak_grows_heap() {
        let k = kernel();
        let p = spawn(&k, "p");
        let old = k.procs.with(p, |proc_| proc_.vm.brk()).unwrap();
        let new = k.sys_obreak(p, Vaddr(old.0 + 8192)).unwrap();
        assert_eq!(new.0, old.0 + 8192);
        k.write_user_memory(p, old, b"grown").unwrap();
    }

    #[test]
    fn message_queues_work_through_syscalls() {
        let k = kernel();
        let p = spawn(&k, "p");
        let q = k.sys_msgget(p).unwrap();
        k.sys_msgsnd(
            p,
            q,
            Message {
                mtype: 1,
                data: b"ping".to_vec(),
            },
        )
        .unwrap();
        assert_eq!(k.sys_msgrcv(p, q, 1).unwrap().data, b"ping");
        assert_eq!(k.sys_msgrcv(p, q, 1).unwrap_err(), Errno::EAGAIN);
    }

    #[test]
    fn ordinary_crash_dumps_core() {
        let k = kernel();
        let p = spawn(&k, "p");
        assert!(k.crash_process(p).unwrap());
        assert!(!k.procs.with(p, |proc_| proc_.is_alive()).unwrap());
    }

    #[test]
    fn execve_replaces_image() {
        let k = kernel();
        let p = spawn(&k, "old");
        let addr = Vaddr(k.layout.data_base);
        k.write_user_memory(p, addr, b"old data").unwrap();
        k.sys_execve(p, "new", vec![0xCCu8; 4096]).unwrap();
        assert_eq!(k.procs.with(p, |proc_| proc_.name.clone()).unwrap(), "new");
        // Old heap contents are gone (fresh zero-filled heap).
        assert_eq!(k.read_user_memory(p, addr, 8).unwrap(), vec![0u8; 8]);
    }
}
