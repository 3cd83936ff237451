//! The process table.
//!
//! Concurrency layout: the pid → process map is **sharded** — 16
//! independent `RwLock`ed maps, shard chosen by mixing the pid — and every
//! process body sits behind its own `Mutex` inside an `Arc`. Syscall paths
//! take `&self`, briefly read-lock one shard to clone the `Arc`, and
//! serialise only against other operations on the *same* process;
//! concurrent dispatches on different pids touch different shard lock
//! words, so nothing bounces a shared cache line per call. When two
//! processes must be held at once (the client/handle pair of a dispatch),
//! the mutexes are always acquired in ascending pid order so concurrent
//! pair operations cannot deadlock.

use crate::cred::Credential;
use crate::errno::Errno;
use crate::proc::{Pid, Process};
use crate::SysResult;
use parking_lot::{Mutex, RwLock};
use secmod_vm::VmSpace;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;

/// A shared handle to one process's lock.
pub type ProcRef = Arc<Mutex<Process>>;

const SHARDS: usize = 16;

fn shard_of(pid: Pid) -> usize {
    crate::clock::stripe_index(pid.0 as u64, SHARDS)
}

/// The kernel's table of all processes.
#[derive(Debug)]
pub struct ProcessTable {
    shards: [RwLock<BTreeMap<Pid, ProcRef>>; SHARDS],
    next_pid: AtomicU32,
}

impl Default for ProcessTable {
    fn default() -> Self {
        ProcessTable::new()
    }
}

impl ProcessTable {
    /// Create an empty table.  Pids start at 1 (the simulated `init`).
    pub fn new() -> ProcessTable {
        ProcessTable {
            shards: std::array::from_fn(|_| RwLock::new(BTreeMap::new())),
            next_pid: AtomicU32::new(1),
        }
    }

    fn shard(&self, pid: Pid) -> &RwLock<BTreeMap<Pid, ProcRef>> {
        &self.shards[shard_of(pid)]
    }

    /// Allocate the next pid.
    pub fn allocate_pid(&self) -> Pid {
        Pid(self.next_pid.fetch_add(1, Relaxed))
    }

    /// Insert a brand-new process built around `vm`.
    pub fn spawn(&self, ppid: Pid, name: &str, cred: Credential, vm: VmSpace) -> Pid {
        let pid = self.allocate_pid();
        self.shard(pid).write().insert(
            pid,
            Arc::new(Mutex::new(Process::new(pid, ppid, name, cred, vm))),
        );
        pid
    }

    /// Insert an already-constructed process (used by fork).
    pub fn insert(&self, process: Process) {
        self.shard(process.pid)
            .write()
            .insert(process.pid, Arc::new(Mutex::new(process)));
    }

    /// Number of processes (including zombies).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Look up a process, returning a shared handle to its lock.
    pub fn get(&self, pid: Pid) -> SysResult<ProcRef> {
        self.shard(pid)
            .read()
            .get(&pid)
            .cloned()
            .ok_or(Errno::ESRCH)
    }

    /// Run `f` against a shared view of the process.
    pub fn with<R>(&self, pid: Pid, f: impl FnOnce(&Process) -> R) -> SysResult<R> {
        let proc_ref = self.get(pid)?;
        let guard = proc_ref.lock();
        Ok(f(&guard))
    }

    /// Run `f` against an exclusive view of the process.
    pub fn with_mut<R>(&self, pid: Pid, f: impl FnOnce(&mut Process) -> R) -> SysResult<R> {
        let proc_ref = self.get(pid)?;
        let mut guard = proc_ref.lock();
        Ok(f(&mut guard))
    }

    /// Does a process exist?
    pub fn exists(&self, pid: Pid) -> bool {
        self.shard(pid).read().contains_key(&pid)
    }

    /// Exclusive access to *two distinct* processes at once (needed by
    /// `uvmspace_force_share` and the dispatch path, which operate on a
    /// client/handle pair). Locks are taken in ascending pid order
    /// regardless of argument order, so concurrent pair operations cannot
    /// deadlock; `f` receives the processes in argument order.
    pub fn with_pair_mut<R>(
        &self,
        a: Pid,
        b: Pid,
        f: impl FnOnce(&mut Process, &mut Process) -> R,
    ) -> SysResult<R> {
        if a == b {
            return Err(Errno::EINVAL);
        }
        let (ra, rb) = (self.get(a)?, self.get(b)?);
        lock_pair_ordered(a, &ra, b, &rb, f)
    }

    /// Remove a process entirely (after it has been reaped). Returns the
    /// process body if no other holder keeps it alive.
    pub fn remove(&self, pid: Pid) -> Option<Process> {
        let removed = self.shard(pid).write().remove(&pid)?;
        match Arc::try_unwrap(removed) {
            Ok(mutex) => Some(mutex.into_inner()),
            Err(_) => None,
        }
    }

    /// All pids currently in the table, in ascending order.
    pub fn pids(&self) -> Vec<Pid> {
        let mut pids: Vec<Pid> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().copied().collect::<Vec<_>>())
            .collect();
        pids.sort_unstable();
        pids
    }

    /// Visit processes in pid order and return the first non-`None` result
    /// of `f`, each under its own lock, stopping as soon as it is found.
    pub fn scan_first<R>(&self, mut f: impl FnMut(&Process) -> Option<R>) -> Option<R> {
        let mut snapshot: Vec<(Pid, ProcRef)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .iter()
                    .map(|(pid, r)| (*pid, r.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        snapshot.sort_unstable_by_key(|(pid, _)| *pid);
        snapshot
            .iter()
            .find_map(|(_, proc_ref)| f(&proc_ref.lock()))
    }
}

/// Lock two distinct processes' mutexes in ascending pid order (deadlock
/// avoidance) and run `f` with them in *argument* order. Shared with the
/// session dispatch path, which holds `ProcRef`s directly.
pub(crate) fn lock_pair_ordered<R>(
    a: Pid,
    ra: &ProcRef,
    b: Pid,
    rb: &ProcRef,
    f: impl FnOnce(&mut Process, &mut Process) -> R,
) -> SysResult<R> {
    if a == b {
        return Err(Errno::EINVAL);
    }
    if a < b {
        let mut ga = ra.lock();
        let mut gb = rb.lock();
        Ok(f(&mut ga, &mut gb))
    } else {
        let mut gb = rb.lock();
        let mut ga = ra.lock();
        Ok(f(&mut ga, &mut gb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::ProcState;
    use secmod_vm::Layout;
    use std::sync::Arc;

    fn vm(name: &str) -> VmSpace {
        VmSpace::new_user(name, Layout::tiny(), Arc::new(vec![0u8; 64]), 2, 2).unwrap()
    }

    #[test]
    fn spawn_and_lookup() {
        let t = ProcessTable::new();
        assert!(t.is_empty());
        let init = t.spawn(Pid(0), "init", Credential::root(), vm("init"));
        let client = t.spawn(init, "client", Credential::user(1000, 100), vm("client"));
        assert_eq!(t.len(), 2);
        assert_eq!(init, Pid(1));
        assert_eq!(client, Pid(2));
        assert_eq!(t.with(client, |p| p.name.clone()).unwrap(), "client");
        assert_eq!(t.get(Pid(99)).unwrap_err(), Errno::ESRCH);
        assert!(t.exists(init));
        assert_eq!(t.with(client, |p| p.ppid).unwrap(), init);
        assert_eq!(t.pids(), vec![init, client]);
    }

    #[test]
    fn pair_locking() {
        let t = ProcessTable::new();
        let a = t.spawn(Pid(0), "a", Credential::root(), vm("a"));
        let b = t.spawn(Pid(0), "b", Credential::root(), vm("b"));
        t.with_pair_mut(a, b, |pa, pb| {
            pa.cpu_time_ns = 10;
            pb.cpu_time_ns = 20;
        })
        .unwrap();
        // Argument order is preserved even though lock order is by pid.
        t.with_pair_mut(b, a, |pb, pa| {
            assert_eq!(pb.cpu_time_ns, 20);
            assert_eq!(pa.cpu_time_ns, 10);
        })
        .unwrap();
        assert_eq!(t.with(a, |p| p.cpu_time_ns).unwrap(), 10);
        assert_eq!(t.with(b, |p| p.cpu_time_ns).unwrap(), 20);
        assert_eq!(t.with_pair_mut(a, a, |_, _| ()).unwrap_err(), Errno::EINVAL);
        assert_eq!(
            t.with_pair_mut(a, Pid(99), |_, _| ()).unwrap_err(),
            Errno::ESRCH
        );
    }

    #[test]
    fn zombies_and_reaping() {
        let t = ProcessTable::new();
        let parent = t.spawn(Pid(0), "parent", Credential::root(), vm("p"));
        let child = t.spawn(parent, "child", Credential::root(), vm("c"));
        assert!(t.with(child, |p| p.is_alive()).unwrap());
        t.with_mut(child, |p| p.state = ProcState::Zombie(3))
            .unwrap();
        assert_eq!(t.with(child, |p| p.state).unwrap(), ProcState::Zombie(3));
        let removed = t.remove(child).unwrap();
        assert_eq!(removed.pid, child);
        assert!(!t.exists(child));
        assert!(t.remove(child).is_none());
    }

    #[test]
    fn concurrent_pair_ops_do_not_deadlock() {
        let t = ProcessTable::new();
        let a = t.spawn(Pid(0), "a", Credential::root(), vm("a"));
        let b = t.spawn(Pid(0), "b", Credential::root(), vm("b"));
        let t = &t;
        std::thread::scope(|s| {
            for flip in [false, true, false, true] {
                s.spawn(move || {
                    for _ in 0..2_000 {
                        let (x, y) = if flip { (a, b) } else { (b, a) };
                        t.with_pair_mut(x, y, |px, py| {
                            px.cpu_time_ns += 1;
                            py.cpu_time_ns += 1;
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(t.with(a, |p| p.cpu_time_ns).unwrap(), 8_000);
        assert_eq!(t.with(b, |p| p.cpu_time_ns).unwrap(), 8_000);
    }
}
