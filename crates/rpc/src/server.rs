//! A threaded RPC server.

use crate::message::{AcceptStat, ReplyBody, RpcMessage};
use crate::record::{read_record, write_record};
use crate::transport::{Endpoint, Listener};
use crate::Result;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A procedure handler: takes the procedure number and XDR-encoded
/// arguments, returns XDR-encoded results or an error status.
pub type ProgramHandler =
    Arc<dyn Fn(u32, &[u8]) -> std::result::Result<Vec<u8>, AcceptStat> + Send + Sync>;

/// Shared server state.
#[derive(Default)]
struct Dispatch {
    programs: HashMap<(u32, u32), ProgramHandler>,
}

/// An RPC server: register programs, then serve on a transport.
#[derive(Clone, Default)]
pub struct RpcServer {
    dispatch: Arc<RwLock<Dispatch>>,
    calls_served: Arc<AtomicU64>,
}

impl RpcServer {
    /// Create an empty server.
    pub fn new() -> RpcServer {
        RpcServer::default()
    }

    /// Register a handler for `(program, version)`.
    pub fn register<F>(&self, program: u32, version: u32, handler: F)
    where
        F: Fn(u32, &[u8]) -> std::result::Result<Vec<u8>, AcceptStat> + Send + Sync + 'static,
    {
        self.dispatch
            .write()
            .programs
            .insert((program, version), Arc::new(handler));
    }

    /// Number of calls served so far.
    fn calls_served(&self) -> u64 {
        self.calls_served.load(Ordering::Relaxed)
    }

    /// Dispatch a single decoded call message to the registered handler and
    /// produce the reply (also used directly by in-process tests).
    fn dispatch_message(&self, msg: &RpcMessage) -> RpcMessage {
        let (xid, body) = match msg {
            RpcMessage::Call { xid, body } => (*xid, body),
            RpcMessage::Reply { xid, .. } => {
                return RpcMessage::Reply {
                    xid: *xid,
                    body: ReplyBody {
                        stat: AcceptStat::GarbageArgs,
                        results: Vec::new(),
                    },
                }
            }
        };
        let handler = {
            let dispatch = self.dispatch.read();
            match dispatch.programs.get(&(body.program, body.version)) {
                Some(h) => h.clone(),
                None => {
                    let version_known = dispatch
                        .programs
                        .keys()
                        .any(|(prog, _)| *prog == body.program);
                    let stat = if version_known {
                        AcceptStat::ProgMismatch
                    } else {
                        AcceptStat::ProgUnavail
                    };
                    return RpcMessage::Reply {
                        xid,
                        body: ReplyBody {
                            stat,
                            results: Vec::new(),
                        },
                    };
                }
            }
        };
        self.calls_served.fetch_add(1, Ordering::Relaxed);
        match handler(body.procedure, &body.args) {
            Ok(results) => RpcMessage::Reply {
                xid,
                body: ReplyBody {
                    stat: AcceptStat::Success,
                    results,
                },
            },
            Err(stat) => RpcMessage::Reply {
                xid,
                body: ReplyBody {
                    stat,
                    results: Vec::new(),
                },
            },
        }
    }

    /// Start serving on `endpoint` in background threads.  Returns a handle
    /// that stops the server when dropped (or when
    /// [`ServerHandle::shutdown`] is called).
    pub fn serve(&self, endpoint: &Endpoint) -> Result<ServerHandle> {
        let listener = Listener::bind(endpoint)?;
        let local = listener.local_endpoint()?;
        let server = self.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = stop.clone();
        let accept_endpoint = local.clone();

        let join = std::thread::spawn(move || {
            while !stop_accept.load(Ordering::Relaxed) {
                let stream = match listener.accept() {
                    Ok(s) => s,
                    Err(_) => break,
                };
                if stop_accept.load(Ordering::Relaxed) {
                    break;
                }
                let per_conn = server.clone();
                std::thread::spawn(move || {
                    let mut stream = stream;
                    // Serve until the peer hangs up (read error).
                    while let Ok(record) = read_record(&mut stream) {
                        let reply = match RpcMessage::decode(&record) {
                            Ok(msg) => per_conn.dispatch_message(&msg),
                            Err(_) => RpcMessage::Reply {
                                xid: 0,
                                body: ReplyBody {
                                    stat: AcceptStat::GarbageArgs,
                                    results: Vec::new(),
                                },
                            },
                        };
                        if write_record(&mut stream, &reply.encode()).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(listener);
        });

        Ok(ServerHandle {
            endpoint: accept_endpoint,
            stop,
            join: Some(join),
        })
    }
}

impl std::fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServer")
            .field("programs", &self.dispatch.read().programs.len())
            .field("calls_served", &self.calls_served())
            .finish()
    }
}

/// A running server.
#[derive(Debug)]
pub struct ServerHandle {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The endpoint clients should connect to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Stop accepting connections and join the accept thread.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = crate::transport::Stream::connect(&self.endpoint);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::CallBody;

    fn echo_server() -> RpcServer {
        let server = RpcServer::new();
        server.register(300_000, 1, |proc_no, args| match proc_no {
            0 => Ok(Vec::new()),
            1 => Ok(args.to_vec()),
            _ => Err(AcceptStat::ProcUnavail),
        });
        server
    }

    fn call(program: u32, version: u32, procedure: u32, args: &[u8]) -> RpcMessage {
        RpcMessage::Call {
            xid: 42,
            body: CallBody {
                program,
                version,
                procedure,
                args: args.to_vec(),
            },
        }
    }

    #[test]
    fn dispatch_success_and_errors() {
        let s = echo_server();
        let reply = s.dispatch_message(&call(300_000, 1, 1, b"payload"));
        match reply {
            RpcMessage::Reply { xid, body } => {
                assert_eq!(xid, 42);
                assert_eq!(body.stat, AcceptStat::Success);
                assert_eq!(body.results, b"payload");
            }
            _ => panic!("expected a reply"),
        }
        // Unknown procedure.
        let reply = s.dispatch_message(&call(300_000, 1, 99, b""));
        assert!(
            matches!(reply, RpcMessage::Reply { body, .. } if body.stat == AcceptStat::ProcUnavail)
        );
        // Unknown version of a known program.
        let reply = s.dispatch_message(&call(300_000, 2, 1, b""));
        assert!(
            matches!(reply, RpcMessage::Reply { body, .. } if body.stat == AcceptStat::ProgMismatch)
        );
        // Unknown program.
        let reply = s.dispatch_message(&call(111, 1, 1, b""));
        assert!(
            matches!(reply, RpcMessage::Reply { body, .. } if body.stat == AcceptStat::ProgUnavail)
        );
        assert_eq!(s.calls_served(), 2);
    }

    #[test]
    fn serves_over_unix_socket() {
        let server = echo_server();
        let mut handle = server.serve(&Endpoint::temp_unix("server-test")).unwrap();
        let client = crate::client::RpcClient::connect(handle.endpoint()).unwrap();
        let reply = client.call(300_000, 1, 1, b"over the wire").unwrap();
        assert_eq!(reply, b"over the wire");
        handle.shutdown();
    }

    #[test]
    fn serves_multiple_sequential_clients() {
        let server = echo_server();
        let handle = server.serve(&Endpoint::temp_unix("multi-client")).unwrap();
        for i in 0..3u8 {
            let client = crate::client::RpcClient::connect(handle.endpoint()).unwrap();
            assert_eq!(client.call(300_000, 1, 1, &[i]).unwrap(), vec![i]);
        }
        assert_eq!(server.calls_served(), 3);
    }
}
