//! # secmod-rpc
//!
//! A from-scratch, ONC-RPC-flavoured local RPC stack: the *baseline* the
//! SecModule paper compares against.
//!
//! §4.5: "We compare against an identical no-op function implemented as a
//! locally running RPC service … invoking a SecModule function is roughly
//! 10 times faster than the identical function being executed via RPC.  The
//! function tested for both RPC and SecModule returns the argument value
//! incremented by one."
//!
//! To make that comparison honest, this crate really does the work an RPC
//! round trip does: XDR marshalling ([`xdr`]), RPC call/reply message
//! framing ([`message`]), record-marking stream framing ([`record`]), a
//! Unix-domain-socket (or loopback TCP) transport ([`transport`]), a
//! threaded server with a dispatch table ([`server`]), a client
//! ([`client`]) and the paper's `testincr` program ([`services`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod message;
pub mod record;
pub mod server;
pub mod services;
pub mod transport;
pub mod xdr;

pub use client::RpcClient;
pub use message::{AcceptStat, CallBody, ReplyBody, RpcMessage};
pub use server::{RpcServer, ServerHandle};
pub use services::{TestIncrClient, TESTINCR_PROGRAM, TESTINCR_VERSION};

/// Errors produced by the RPC stack.
#[derive(Debug)]
pub enum RpcError {
    /// XDR encoding or decoding failed.
    Xdr(String),
    /// An I/O error on the transport.
    Io(std::io::Error),
    /// The server rejected or could not decode the call.
    Rejected(String),
    /// The reply did not match the request (bad xid or wrong message type).
    ProtocolMismatch(String),
    /// The requested program/procedure is not available.
    Unavailable(String),
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Xdr(m) => write!(f, "XDR error: {m}"),
            RpcError::Io(e) => write!(f, "I/O error: {e}"),
            RpcError::Rejected(m) => write!(f, "call rejected: {m}"),
            RpcError::ProtocolMismatch(m) => write!(f, "protocol mismatch: {m}"),
            RpcError::Unavailable(m) => write!(f, "unavailable: {m}"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        RpcError::Io(e)
    }
}

/// Result alias for RPC operations.
pub type Result<T> = std::result::Result<T, RpcError>;
