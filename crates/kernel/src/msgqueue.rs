//! SYSV-style message queues.
//!
//! The paper uses the existing OpenBSD SYSV MSG interface for the second of
//! its three implementation goals: "keeping the client and handle
//! synchronized … The `msgsnd()` and `msgrcv()` functions already contain
//! efficient blocking and awakening that we desire for synchronization.  So
//! for the second goal, no changes were needed."
//!
//! Sessions create no queues of their own: the dispatch paths charge the
//! paper's message operation through the cost model
//! ([`crate::cost::CostModel::msg_op_ns`]).

use crate::errno::Errno;
use crate::SysResult;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A message queue identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MsgQueueId(pub u32);

/// A queued message.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// Message type (must be positive, as in SYSV).
    pub mtype: i64,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// One queue.
#[derive(Debug, Default)]
struct Queue {
    messages: VecDeque<Message>,
    total_bytes: usize,
}

/// The kernel's set of message queues.
///
/// Interior-mutable: the queue map sits behind one mutex (queue operations
/// are short and no SMOD dispatch path touches a queue), the operation
/// counters are atomics.
#[derive(Debug, Default)]
pub struct MsgSubsystem {
    inner: Mutex<MsgInner>,
    sends: AtomicU64,
    receives: AtomicU64,
}

#[derive(Debug)]
struct MsgInner {
    queues: BTreeMap<MsgQueueId, Queue>,
    next_id: u32,
    /// Maximum bytes a single queue may hold (SYSV `msgmnb`).
    max_queue_bytes: usize,
}

impl Default for MsgInner {
    fn default() -> Self {
        MsgInner {
            queues: BTreeMap::new(),
            next_id: 1,
            max_queue_bytes: 16384,
        }
    }
}

impl MsgSubsystem {
    /// Create the subsystem with the traditional 16 KiB per-queue limit.
    pub fn new() -> MsgSubsystem {
        MsgSubsystem::default()
    }

    /// `msgget(IPC_PRIVATE)`: create a new queue.
    pub fn msgget(&self) -> MsgQueueId {
        let mut inner = self.inner.lock();
        let id = MsgQueueId(inner.next_id);
        inner.next_id += 1;
        inner.queues.insert(id, Queue::default());
        id
    }

    /// Remove a queue (`msgctl(IPC_RMID)`).
    pub fn remove(&self, id: MsgQueueId) -> SysResult<()> {
        self.inner
            .lock()
            .queues
            .remove(&id)
            .map(|_| ())
            .ok_or(Errno::EIDRM)
    }

    /// Does the queue exist?
    pub fn exists(&self, id: MsgQueueId) -> bool {
        self.inner.lock().queues.contains_key(&id)
    }

    /// Change the per-queue byte limit (SYSV `msgmnb`).
    pub fn set_max_queue_bytes(&self, max: usize) {
        self.inner.lock().max_queue_bytes = max;
    }

    /// `msgsnd`: append a message.  Fails with `EAGAIN` if the queue is
    /// full (the simulator never blocks the sender).
    pub fn msgsnd(&self, id: MsgQueueId, msg: Message) -> SysResult<()> {
        if msg.mtype <= 0 {
            return Err(Errno::EINVAL);
        }
        let mut inner = self.inner.lock();
        let max = inner.max_queue_bytes;
        let queue = inner.queues.get_mut(&id).ok_or(Errno::EIDRM)?;
        if queue.total_bytes + msg.data.len() > max {
            return Err(Errno::EAGAIN);
        }
        queue.total_bytes += msg.data.len();
        queue.messages.push_back(msg);
        self.sends.fetch_add(1, Relaxed);
        Ok(())
    }

    /// `msgrcv`: remove and return the first message of type `mtype`
    /// (or the first message of any type when `mtype == 0`).  Returns
    /// `EAGAIN` when no matching message is queued — the kernel proper turns
    /// that into blocking the caller.
    pub fn msgrcv(&self, id: MsgQueueId, mtype: i64) -> SysResult<Message> {
        let mut inner = self.inner.lock();
        let queue = inner.queues.get_mut(&id).ok_or(Errno::EIDRM)?;
        let pos = if mtype == 0 {
            if queue.messages.is_empty() {
                None
            } else {
                Some(0)
            }
        } else {
            queue.messages.iter().position(|m| m.mtype == mtype)
        };
        match pos {
            Some(i) => {
                let msg = queue.messages.remove(i).expect("index valid");
                queue.total_bytes -= msg.data.len();
                self.receives.fetch_add(1, Relaxed);
                Ok(msg)
            }
            None => Err(Errno::EAGAIN),
        }
    }

    /// Number of messages waiting in a queue.
    pub fn depth(&self, id: MsgQueueId) -> SysResult<usize> {
        self.inner
            .lock()
            .queues
            .get(&id)
            .map(|q| q.messages.len())
            .ok_or(Errno::EIDRM)
    }

    /// Total `msgsnd` operations performed.
    pub fn sends(&self) -> u64 {
        self.sends.load(Relaxed)
    }

    /// Total `msgrcv` operations performed.
    pub fn receives(&self) -> u64 {
        self.receives.load(Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(mtype: i64, data: &[u8]) -> Message {
        Message {
            mtype,
            data: data.to_vec(),
        }
    }

    #[test]
    fn create_send_receive() {
        let m = MsgSubsystem::new();
        let q = m.msgget();
        assert!(m.exists(q));
        assert_eq!(m.depth(q).unwrap(), 0);
        m.msgsnd(q, msg(1, b"hello")).unwrap();
        m.msgsnd(q, msg(2, b"world")).unwrap();
        assert_eq!(m.depth(q).unwrap(), 2);
        // Receive by type.
        let got = m.msgrcv(q, 2).unwrap();
        assert_eq!(got.data, b"world");
        // Receive any.
        let got = m.msgrcv(q, 0).unwrap();
        assert_eq!(got.data, b"hello");
        assert_eq!(m.msgrcv(q, 0).unwrap_err(), Errno::EAGAIN);
        assert_eq!(m.sends(), 2);
        assert_eq!(m.receives(), 2);
    }

    #[test]
    fn fifo_order_within_type() {
        let m = MsgSubsystem::new();
        let q = m.msgget();
        for i in 0..5u8 {
            m.msgsnd(q, msg(7, &[i])).unwrap();
        }
        for i in 0..5u8 {
            assert_eq!(m.msgrcv(q, 7).unwrap().data, vec![i]);
        }
    }

    #[test]
    fn invalid_type_and_missing_queue() {
        let m = MsgSubsystem::new();
        let q = m.msgget();
        assert_eq!(m.msgsnd(q, msg(0, b"x")).unwrap_err(), Errno::EINVAL);
        assert_eq!(m.msgsnd(q, msg(-1, b"x")).unwrap_err(), Errno::EINVAL);
        assert_eq!(
            m.msgsnd(MsgQueueId(999), msg(1, b"x")).unwrap_err(),
            Errno::EIDRM
        );
        assert_eq!(m.msgrcv(MsgQueueId(999), 0).unwrap_err(), Errno::EIDRM);
        assert_eq!(m.depth(MsgQueueId(999)).unwrap_err(), Errno::EIDRM);
    }

    #[test]
    fn queue_capacity_limit() {
        let m = MsgSubsystem::new();
        m.set_max_queue_bytes(10);
        let q = m.msgget();
        m.msgsnd(q, msg(1, &[0u8; 6])).unwrap();
        assert_eq!(m.msgsnd(q, msg(1, &[0u8; 6])).unwrap_err(), Errno::EAGAIN);
        // Draining frees space.
        m.msgrcv(q, 0).unwrap();
        m.msgsnd(q, msg(1, &[0u8; 6])).unwrap();
    }

    #[test]
    fn remove_queue() {
        let m = MsgSubsystem::new();
        let q = m.msgget();
        m.msgsnd(q, msg(1, b"x")).unwrap();
        m.remove(q).unwrap();
        assert!(!m.exists(q));
        assert_eq!(m.remove(q).unwrap_err(), Errno::EIDRM);
        assert_eq!(m.msgsnd(q, msg(1, b"x")).unwrap_err(), Errno::EIDRM);
    }
}
