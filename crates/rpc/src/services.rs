//! The `testincr` RPC service: the paper's baseline workload.
//!
//! "The function tested for both RPC and SecModule returns the argument
//! value incremented by one" (§4.5).

use crate::message::AcceptStat;
use crate::server::RpcServer;
use crate::xdr::{XdrDecoder, XdrEncoder};
use crate::{Result, RpcClient, RpcError};

/// Program number of the testincr service (in the user-defined range).
pub const TESTINCR_PROGRAM: u32 = 0x2000_0001;
/// Program version.
pub const TESTINCR_VERSION: u32 = 1;
/// Procedure 0: null (ping).
pub const PROC_NULL: u32 = 0;
/// Procedure 1: increment a 64-bit integer.
pub const PROC_INCR: u32 = 1;
/// Procedure 2: echo opaque bytes (used by the marshalling-size ablation).
pub const PROC_ECHO: u32 = 2;

// surface: §4.5's RPC baseline on any transport; only the TCP loopback test picks its own
/// Register the testincr program on a server.
pub fn register_testincr(server: &RpcServer) {
    server.register(
        TESTINCR_PROGRAM,
        TESTINCR_VERSION,
        |procedure, args| match procedure {
            PROC_NULL => Ok(Vec::new()),
            PROC_INCR => {
                let mut d = XdrDecoder::new(args);
                let v = d.get_u64().map_err(|_| AcceptStat::GarbageArgs)?;
                let mut e = XdrEncoder::new();
                e.put_u64(v.wrapping_add(1));
                Ok(e.into_bytes())
            }
            PROC_ECHO => {
                let mut d = XdrDecoder::new(args);
                let data = d.get_opaque().map_err(|_| AcceptStat::GarbageArgs)?;
                let mut e = XdrEncoder::new();
                e.put_opaque(&data);
                Ok(e.into_bytes())
            }
            _ => Err(AcceptStat::ProcUnavail),
        },
    );
}

/// A typed client for the testincr service.
#[derive(Debug)]
pub struct TestIncrClient {
    client: RpcClient,
}

impl TestIncrClient {
    /// Wrap a connected [`RpcClient`].
    pub fn new(client: RpcClient) -> TestIncrClient {
        TestIncrClient { client }
    }

    /// Connect to a testincr server.
    pub fn connect(endpoint: &crate::transport::Endpoint) -> Result<TestIncrClient> {
        Ok(TestIncrClient {
            client: RpcClient::connect(endpoint)?,
        })
    }

    /// Procedure 0: null call (measures pure round-trip cost).
    pub fn null(&self) -> Result<()> {
        self.client
            .call(TESTINCR_PROGRAM, TESTINCR_VERSION, PROC_NULL, &[])?;
        Ok(())
    }

    /// Procedure 1: `incr(x) == x + 1`.
    pub fn incr(&self, value: u64) -> Result<u64> {
        let mut e = XdrEncoder::new();
        e.put_u64(value);
        let reply = self.client.call(
            TESTINCR_PROGRAM,
            TESTINCR_VERSION,
            PROC_INCR,
            &e.into_bytes(),
        )?;
        let mut d = XdrDecoder::new(&reply);
        d.get_u64()
            .map_err(|e| RpcError::Xdr(format!("bad incr reply: {e}")))
    }

    /// Procedure 2: echo a payload of arbitrary size.
    pub fn echo(&self, data: &[u8]) -> Result<Vec<u8>> {
        let mut e = XdrEncoder::new();
        e.put_opaque(data);
        let reply = self.client.call(
            TESTINCR_PROGRAM,
            TESTINCR_VERSION,
            PROC_ECHO,
            &e.into_bytes(),
        )?;
        let mut d = XdrDecoder::new(&reply);
        d.get_opaque()
            .map_err(|e| RpcError::Xdr(format!("bad echo reply: {e}")))
    }
}

/// Convenience: start a testincr server on a fresh local Unix socket and
/// return its handle (shutting down on drop).
pub fn spawn_local_testincr_server() -> Result<crate::server::ServerHandle> {
    let server = RpcServer::new();
    register_testincr(&server);
    server.serve(&crate::transport::Endpoint::temp_unix("testincr"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_returns_argument_plus_one() {
        let handle = spawn_local_testincr_server().unwrap();
        let client = TestIncrClient::connect(handle.endpoint()).unwrap();
        assert_eq!(client.incr(41).unwrap(), 42);
        assert_eq!(client.incr(0).unwrap(), 1);
        assert_eq!(client.incr(u64::MAX).unwrap(), 0);
        client.null().unwrap();
    }

    #[test]
    fn echo_various_sizes() {
        let handle = spawn_local_testincr_server().unwrap();
        let client = TestIncrClient::connect(handle.endpoint()).unwrap();
        for len in [0usize, 1, 100, 4096, 70_000] {
            let data: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            assert_eq!(client.echo(&data).unwrap(), data);
        }
    }

    #[test]
    fn many_sequential_calls_on_one_connection() {
        let handle = spawn_local_testincr_server().unwrap();
        let client = TestIncrClient::connect(handle.endpoint()).unwrap();
        for i in 0..200u64 {
            assert_eq!(client.incr(i).unwrap(), i + 1);
        }
    }

    #[test]
    fn works_over_tcp_loopback_too() {
        let server = RpcServer::new();
        register_testincr(&server);
        let listener_endpoint = {
            // Bind an ephemeral loopback port through serve().
            crate::transport::Endpoint::Tcp("127.0.0.1:0".parse().unwrap())
        };
        let handle = server.serve(&listener_endpoint).unwrap();
        let client = TestIncrClient::connect(handle.endpoint()).unwrap();
        assert_eq!(client.incr(7).unwrap(), 8);
    }
}
