//! The native backend: real threads, real shared memory, real time.
//!
//! The paper's mechanism makes two *processes* share their data/heap/stack
//! while keeping the module text private to the handle.  Two threads of one
//! process already share an address space, so the native backend runs the
//! client on the calling thread and the handle on a dedicated thread, with
//! a blocking rendezvous (the stand-in for `sys_smod_call`'s trap + SYSV
//! message + context switch) and a credential check on every call.  The
//! protected function bodies live only in the handle thread's dispatch
//! table — the client never holds them — and operate on a genuinely shared
//! heap.
//!
//! This is the backend the wall-clock Figure 8 reproduction uses: absolute
//! numbers reflect modern hardware, but the ordering (native syscall ≪ SMOD
//! dispatch ≪ local RPC) and rough ratios match the paper.
//!
//! Which lock is held where: the shared heap sits behind one `RwLock`
//! (readers concurrent, writers exclusive — held only for the duration of
//! a `read`/`write` byte copy); the call rendezvous itself holds no lock
//! at all, it is a pair of bounded(0) channels, so a session serialises
//! its own calls but separate sessions never contend.

use crate::{Result, SmodError};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::RwLock;
use secmod_crypto::hmac::HmacSha256;
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The heap shared between the client and the handle thread.
#[derive(Debug, Default)]
pub struct SharedHeap {
    bytes: RwLock<Vec<u8>>,
}

impl SharedHeap {
    /// Create a heap of `size` zeroed bytes.
    pub fn new(size: usize) -> Arc<SharedHeap> {
        Arc::new(SharedHeap {
            bytes: RwLock::new(vec![0u8; size]),
        })
    }

    /// Heap size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.read().len()
    }

    /// Is the heap empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read `len` bytes at `offset`.
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        let bytes = self.bytes.read();
        bytes[offset..offset + len].to_vec()
    }

    /// Write bytes at `offset`.
    pub fn write(&self, offset: usize, data: &[u8]) {
        let mut bytes = self.bytes.write();
        bytes[offset..offset + data.len()].copy_from_slice(data);
    }
}

/// The execution context handed to native function bodies.
pub struct NativeCtx {
    /// The heap shared with the client.
    pub heap: Arc<SharedHeap>,
    /// The (OS) process id of the client, as `getpid` must report it.
    pub client_pid: u32,
}

/// A native function body.
pub type NativeBody = Arc<dyn Fn(&NativeCtx, &[u8]) -> Vec<u8> + Send + Sync>;

/// A module definition for the native backend.
#[derive(Clone, Default)]
pub struct NativeModule {
    functions: HashMap<String, NativeBody>,
    credential_key: Vec<u8>,
}

impl std::fmt::Debug for NativeModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NativeModule({} functions)", self.functions.len())
    }
}

impl NativeModule {
    /// Create an empty module protected by the given credential key.
    pub fn new(credential_key: &[u8]) -> NativeModule {
        NativeModule {
            functions: HashMap::new(),
            credential_key: credential_key.to_vec(),
        }
    }

    /// Register a function.
    pub fn function<F>(mut self, name: &str, body: F) -> NativeModule
    where
        F: Fn(&NativeCtx, &[u8]) -> Vec<u8> + Send + Sync + 'static,
    {
        self.functions.insert(name.to_string(), Arc::new(body));
        self
    }

    /// The standard benchmark module: `testincr` and `getpid`.
    pub fn benchmark_module(credential_key: &[u8]) -> NativeModule {
        NativeModule::new(credential_key)
            .function("testincr", |_ctx, args| {
                let v = u64::from_le_bytes(args[..8].try_into().unwrap_or([0; 8]));
                (v + 1).to_le_bytes().to_vec()
            })
            .function("getpid", |ctx, _args| {
                (ctx.client_pid as u64).to_le_bytes().to_vec()
            })
    }
}

enum HandleRequest {
    Call {
        token: [u8; 32],
        function: String,
        args: Vec<u8>,
    },
    Shutdown,
}

enum HandleReply {
    Ok(Vec<u8>),
    Denied,
    Unknown(String),
}

/// An established native session: a handle thread bound to exactly one
/// client, sharing a heap with it.
pub struct NativeSession {
    tx: Sender<HandleRequest>,
    rx: Receiver<HandleReply>,
    token: [u8; 32],
    heap: Arc<SharedHeap>,
    handle_thread: Option<JoinHandle<u64>>,
}

impl std::fmt::Debug for NativeSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NativeSession(heap={} bytes)", self.heap.len())
    }
}

impl NativeSession {
    /// Start a session: verify the client credential against the module's
    /// credential key, spawn the handle thread, and derive the per-session
    /// token the handle will demand on every call.
    pub fn start(
        module: &NativeModule,
        client_credential: &[u8],
        heap_size: usize,
    ) -> Result<NativeSession> {
        if !secmod_crypto::ct_eq(client_credential, &module.credential_key) {
            return Err(SmodError::CredentialRejected);
        }
        let client_pid = std::process::id();
        // The token binds the session to this client (pid) and credential.
        let mut mac = HmacSha256::new(&module.credential_key);
        mac.update(&client_pid.to_le_bytes());
        mac.update(b"secmodule-native-session");
        let token = mac.finalize();

        let heap = SharedHeap::new(heap_size);
        let functions = module.functions.clone();
        let expected_token = token;
        let ctx = NativeCtx {
            heap: heap.clone(),
            client_pid,
        };

        let (req_tx, req_rx) = bounded::<HandleRequest>(0);
        let (rep_tx, rep_rx) = bounded::<HandleReply>(0);
        let handle_thread = std::thread::Builder::new()
            .name("smod-handle".to_string())
            .spawn(move || {
                let mut calls: u64 = 0;
                while let Ok(req) = req_rx.recv() {
                    match req {
                        HandleRequest::Shutdown => break,
                        HandleRequest::Call {
                            token,
                            function,
                            args,
                        } => {
                            // Credential re-check on every call.
                            let reply = if !secmod_crypto::ct_eq(&token, &expected_token) {
                                HandleReply::Denied
                            } else {
                                match functions.get(&function) {
                                    None => HandleReply::Unknown(function),
                                    Some(body) => {
                                        calls += 1;
                                        HandleReply::Ok(body(&ctx, &args))
                                    }
                                }
                            };
                            if rep_tx.send(reply).is_err() {
                                break;
                            }
                        }
                    }
                }
                calls
            })
            .expect("spawn handle thread");

        Ok(NativeSession {
            tx: req_tx,
            rx: rep_rx,
            token,
            heap,
            handle_thread: Some(handle_thread),
        })
    }

    /// The heap shared with the handle.
    pub fn heap(&self) -> Arc<SharedHeap> {
        self.heap.clone()
    }

    /// Dispatch a call to the handle and wait for the reply.
    pub fn call(&self, function: &str, args: &[u8]) -> Result<Vec<u8>> {
        self.call_with_token(self.token, function, args)
    }

    /// Dispatch a call presenting an explicit token (used by tests to show
    /// that a forged token is rejected).
    pub fn call_with_token(&self, token: [u8; 32], function: &str, args: &[u8]) -> Result<Vec<u8>> {
        self.tx
            .send(HandleRequest::Call {
                token,
                function: function.to_string(),
                args: args.to_vec(),
            })
            .map_err(|_| SmodError::HandleGone)?;
        match self.rx.recv().map_err(|_| SmodError::HandleGone)? {
            HandleReply::Ok(result) => Ok(result),
            HandleReply::Denied => Err(SmodError::CredentialRejected),
            HandleReply::Unknown(name) => Err(SmodError::UnknownFunction(name)),
        }
    }

    /// End the session and return how many calls the handle served.
    pub fn shutdown(mut self) -> u64 {
        let _ = self.tx.send(HandleRequest::Shutdown);
        match self.handle_thread.take() {
            Some(h) => h.join().unwrap_or(0),
            None => 0,
        }
    }
}

impl Drop for NativeSession {
    fn drop(&mut self) {
        let _ = self.tx.send(HandleRequest::Shutdown);
        if let Some(h) = self.handle_thread.take() {
            let _ = h.join();
        }
    }
}

/// The native `getpid()` baseline: a real system call on the host.
pub fn native_getpid() -> u32 {
    std::process::id()
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &[u8] = b"native-credential";

    fn session() -> NativeSession {
        NativeSession::start(&NativeModule::benchmark_module(KEY), KEY, 4096).unwrap()
    }

    #[test]
    fn testincr_and_getpid() {
        let s = session();
        let r = s.call("testincr", &41u64.to_le_bytes()).unwrap();
        assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), 42);
        let r = s.call("getpid", &[]).unwrap();
        assert_eq!(
            u64::from_le_bytes(r.try_into().unwrap()),
            std::process::id() as u64
        );
        assert_eq!(s.shutdown(), 2);
    }

    #[test]
    fn wrong_credential_cannot_start_a_session() {
        let module = NativeModule::benchmark_module(KEY);
        assert!(matches!(
            NativeSession::start(&module, b"wrong", 4096),
            Err(SmodError::CredentialRejected)
        ));
    }

    #[test]
    fn forged_token_is_rejected_per_call() {
        let s = session();
        assert!(matches!(
            s.call_with_token([0u8; 32], "testincr", &1u64.to_le_bytes()),
            Err(SmodError::CredentialRejected)
        ));
        // The genuine token still works afterwards.
        assert!(s.call("testincr", &1u64.to_le_bytes()).is_ok());
    }

    #[test]
    fn unknown_function() {
        let s = session();
        assert!(matches!(
            s.call("does_not_exist", &[]),
            Err(SmodError::UnknownFunction(_))
        ));
    }

    #[test]
    fn shared_heap_is_visible_to_both_sides() {
        let module = NativeModule::new(KEY).function("sum_heap", |ctx, args| {
            let len = u64::from_le_bytes(args[..8].try_into().unwrap()) as usize;
            let total: u64 = ctx.heap.read(0, len).iter().map(|&b| b as u64).sum();
            total.to_le_bytes().to_vec()
        });
        let s = NativeSession::start(&module, KEY, 1024).unwrap();
        s.heap().write(0, &[1, 2, 3, 4, 5]);
        let r = s.call("sum_heap", &5u64.to_le_bytes()).unwrap();
        assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), 15);
        // The handle can also write back; the client observes it.
        let module2 = NativeModule::new(KEY).function("store", |ctx, args| {
            ctx.heap.write(100, args);
            Vec::new()
        });
        let s2 = NativeSession::start(&module2, KEY, 1024).unwrap();
        s2.call("store", b"from handle").unwrap();
        assert_eq!(s2.heap().read(100, 11), b"from handle");
    }

    #[test]
    fn many_calls_are_stable() {
        let s = session();
        for i in 0..1000u64 {
            let r = s.call("testincr", &i.to_le_bytes()).unwrap();
            assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), i + 1);
        }
    }

    #[test]
    fn native_getpid_returns_this_process() {
        assert_eq!(native_getpid(), std::process::id());
    }
}
