//! Stream transports: Unix-domain sockets (the "locally running RPC
//! service" of the paper) and loopback TCP.

use crate::Result;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

/// A transport endpoint address.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// A TCP address (loopback in all our uses).
    Tcp(SocketAddr),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl Endpoint {
    /// A fresh, unique Unix socket path in the system temp directory.
    pub fn temp_unix(tag: &str) -> Endpoint {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("secmod-rpc-{tag}-{}-{n}.sock", std::process::id()));
        Endpoint::Unix(path)
    }
}

/// A connected bidirectional stream.
#[derive(Debug)]
pub enum Stream {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

impl Stream {
    /// Connect to an endpoint.
    pub fn connect(endpoint: &Endpoint) -> Result<Stream> {
        Ok(match endpoint {
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                Stream::Tcp(s)
            }
        })
    }
}

/// A listening socket.
#[derive(Debug)]
pub enum Listener {
    /// Unix-domain listener (removes the socket file on drop).
    Unix(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Bind a listener.  For TCP, pass a port-0 loopback address to get an
    /// ephemeral port; use [`Listener::local_endpoint`] to learn it.
    pub fn bind(endpoint: &Endpoint) -> Result<Listener> {
        Ok(match endpoint {
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Listener::Unix(UnixListener::bind(path)?, path.clone())
            }
            Endpoint::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
        })
    }

    /// The endpoint clients should connect to.
    pub fn local_endpoint(&self) -> Result<Endpoint> {
        Ok(match self {
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
            Listener::Tcp(l) => Endpoint::Tcp(l.local_addr()?),
        })
    }

    /// Accept one connection.
    pub fn accept(&self) -> Result<Stream> {
        Ok(match self {
            Listener::Unix(l, _) => Stream::Unix(l.accept()?.0),
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Stream::Tcp(s)
            }
        })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        match self {
            Listener::Unix(_, path) => {
                let _ = std::fs::remove_file(path);
            }
            Listener::Tcp(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{read_record, write_record};

    fn exercise(listener: Listener) {
        let endpoint = listener.local_endpoint().unwrap();
        let server = std::thread::spawn(move || {
            let mut stream = listener.accept().unwrap();
            let req = read_record(&mut stream).unwrap();
            let mut reply = req.clone();
            reply.reverse();
            write_record(&mut stream, &reply).unwrap();
        });
        let mut client = Stream::connect(&endpoint).unwrap();
        write_record(&mut client, b"abc").unwrap();
        assert_eq!(read_record(&mut client).unwrap(), b"cba");
        server.join().unwrap();
    }

    #[test]
    fn unix_socket_roundtrip() {
        let endpoint = Endpoint::temp_unix("transport-test");
        exercise(Listener::bind(&endpoint).unwrap());
    }

    #[test]
    fn tcp_loopback_roundtrip() {
        exercise(Listener::bind(&Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap());
    }

    #[test]
    fn unix_socket_file_removed_on_drop() {
        let endpoint = Endpoint::temp_unix("drop-test");
        let path = match &endpoint {
            Endpoint::Unix(p) => p.clone(),
            _ => unreachable!(),
        };
        {
            let _l = Listener::bind(&endpoint).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn endpoints_display_and_uniqueness() {
        let a = Endpoint::temp_unix("x");
        let b = Endpoint::temp_unix("x");
        assert_ne!(a, b);
        assert!(a.to_string().starts_with("unix:"));
        let t = Endpoint::Tcp("127.0.0.1:80".parse().unwrap());
        assert_eq!(t.to_string(), "tcp:127.0.0.1:80");
    }

    #[test]
    fn connect_to_missing_endpoint_fails() {
        let endpoint = Endpoint::Unix(std::env::temp_dir().join("definitely-not-there.sock"));
        assert!(Stream::connect(&endpoint).is_err());
    }
}
