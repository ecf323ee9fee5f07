//! The one HTTP front end the shard ([`crate::Server`]) and the router
//! ([`crate::Router`]) both serve through: the bound listener, the accept
//! loop with its connection cap, one handler thread per keep-alive
//! connection, and the loopback connect that wakes the acceptor on stop.
//! A service plugs in only a [`Service`]: its route function and its
//! default `Retry-After` hint.
//!
//! A connection over the cap, or one whose handler thread cannot be
//! spawned, is answered `503` + `Retry-After` (`reason:
//! connections_exhausted`) inline on the acceptor thread and closed —
//! shed visibly, never silently dropped. Every other `503` carries the
//! reply's own `Retry-After` hint, or else the service's default.

use crate::http::{read_request, write_response, write_response_with, Request, IO_TIMEOUT};
use sspc_common::json::Value;
use sspc_common::{Error, Result};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A routed answer: status, JSON body, and an optional `Retry-After`
/// hint in seconds (only sent on a `503`).
pub(crate) type Reply = (u16, Value, Option<u64>);

/// The JSON error document every service answers failures with.
pub(crate) fn error_body(msg: impl Into<String>) -> Value {
    Value::object().with("error", msg.into())
}

/// What a service plugs into the front end.
pub(crate) trait Service: Send + Sync + 'static {
    /// State a handler keeps across one connection's keep-alive requests
    /// (the router's cache of shard connections).
    type Conn: Default;

    /// Answers one request. `ingress` is the front end's own counter set.
    fn route(&self, conn: &mut Self::Conn, request: &Request, ingress: &Ingress) -> Reply;

    /// The `Retry-After` seconds for a `503` that carries no hint of its
    /// own, connection sheds included.
    fn retry_after(&self) -> u64;
}

/// The connection cap, the stop flag, and the front end's one counter
/// set, shared by the acceptor and every handler.
#[derive(Debug, Default)]
pub(crate) struct Ingress {
    limit: usize,
    stopping: AtomicBool,
    accepted: AtomicU64,
    active: AtomicU64,
    rejected: AtomicU64,
    spawn_failures: AtomicU64,
    in_flight: AtomicU64,
}

impl Ingress {
    fn new(limit: usize) -> Ingress {
        Ingress {
            limit: limit.max(1),
            ..Ingress::default()
        }
    }

    /// Handler connections currently open.
    pub(crate) fn active(&self) -> u64 {
        self.active.load(Ordering::SeqCst)
    }

    /// Connections answered `503 connections_exhausted` instead of
    /// served: over the cap, or no handler thread could be spawned.
    pub(crate) fn shed(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed) + self.spawn_failures.load(Ordering::Relaxed)
    }

    /// Adds the connection and request counters to a `/healthz` document.
    pub(crate) fn render(&self, doc: Value) -> Value {
        let load = |counter: &AtomicU64| counter.load(Ordering::SeqCst);
        doc.with("connections_accepted", load(&self.accepted))
            .with("connections_active", load(&self.active))
            .with("connections_limit", self.limit)
            .with("connections_rejected", load(&self.rejected))
            .with("handler_spawn_failures", load(&self.spawn_failures))
            .with("requests_in_flight", load(&self.in_flight))
    }
}

/// Holds one slot of the connection cap; released on every handler exit
/// path, a panicking handler included.
struct Slot(Arc<Ingress>);

impl Slot {
    fn open(ingress: &Arc<Ingress>) -> Slot {
        ingress.active.fetch_add(1, Ordering::SeqCst);
        Slot(Arc::clone(ingress))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Binds `addr` and reads back the bound address (port 0 resolved).
///
/// # Errors
///
/// [`Error::InvalidParameter`] when the address cannot be bound.
pub(crate) fn bind(addr: &str) -> Result<(TcpListener, SocketAddr)> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| Error::InvalidParameter(format!("cannot bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| Error::InvalidParameter(format!("local_addr: {e}")))?;
    Ok((listener, local))
}

/// Polls `done` every 10 ms until it holds or `timeout` passes; returns
/// whether it held. The wait half of a drain.
pub(crate) fn wait_until(timeout: Duration, done: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A running front end; [`Frontend::stop`] or [`Frontend::wait`] ends it.
pub(crate) struct Frontend {
    addr: SocketAddr,
    ingress: Arc<Ingress>,
    acceptor: JoinHandle<()>,
}

impl Frontend {
    /// Starts accepting on a listener from [`bind`], holding at most
    /// `max_connections` handler connections open.
    pub(crate) fn serve<S: Service>(
        listener: TcpListener,
        addr: SocketAddr,
        max_connections: usize,
        service: Arc<S>,
    ) -> Frontend {
        let ingress = Arc::new(Ingress::new(max_connections));
        let acceptor_ingress = Arc::clone(&ingress);
        let acceptor = std::thread::Builder::new()
            .name("sspc-acceptor".into())
            .spawn(move || accept(&listener, &acceptor_ingress, &service))
            .expect("spawn acceptor");
        Frontend {
            addr,
            ingress,
            acceptor,
        }
    }

    /// The bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Handler connections currently open.
    pub(crate) fn connections_active(&self) -> u64 {
        self.ingress.active()
    }

    /// Blocks until the acceptor exits.
    pub(crate) fn wait(self) {
        let _ = self.acceptor.join();
    }

    /// Stops accepting: open handlers close after their current request.
    pub(crate) fn stop(self) {
        self.ingress.stopping.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept()` with a loopback connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
    }
}

/// Answers a connection the front end cannot take with `503` +
/// `Retry-After` inline on the acceptor thread, then closes it.
fn shed(mut stream: TcpStream, message: &str, retry_after: u64) {
    // A short write timeout so one unreadable peer cannot wedge the
    // acceptor.
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let body = error_body(message).with("reason", "connections_exhausted");
    let _ = write_response_with(&mut stream, 503, &body, true, Some(retry_after));
}

fn accept<S: Service>(listener: &TcpListener, ingress: &Arc<Ingress>, service: &Arc<S>) {
    for stream in listener.incoming() {
        if ingress.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if ingress.active() >= ingress.limit as u64 {
            ingress.rejected.fetch_add(1, Ordering::Relaxed);
            shed(
                stream,
                &format!(
                    "connection limit reached ({} active), retry later",
                    ingress.limit
                ),
                service.retry_after(),
            );
            continue;
        }
        ingress.accepted.fetch_add(1, Ordering::Relaxed);
        let slot = Slot::open(ingress);
        // A duplicate handle so a failed spawn can still answer the peer
        // (`stream` itself moves into the handler closure).
        let reply = stream.try_clone();
        let handler_service = Arc::clone(service);
        let spawned = std::thread::Builder::new()
            .name("sspc-handler".into())
            .spawn(move || {
                let slot = slot;
                handle(stream, &*handler_service, &slot.0);
            });
        if spawned.is_err() {
            // The closure (with `stream` and the slot) was dropped by the
            // failed spawn; the duplicate still reaches the peer.
            ingress.spawn_failures.fetch_add(1, Ordering::Relaxed);
            if let Ok(reply) = reply {
                shed(
                    reply,
                    "no handler thread available, retry later",
                    service.retry_after(),
                );
            }
        }
    }
}

/// Serves one connection until the peer asks to close, goes idle past
/// the socket timeout, hangs up, or sends something malformed.
fn handle<S: Service>(mut stream: TcpStream, service: &S, ingress: &Ingress) {
    if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut conn = S::Conn::default();
    loop {
        match read_request(&mut reader) {
            Ok(Some(request)) => {
                // Close when the peer asked to, or when we are stopping.
                let close = request.close || ingress.stopping.load(Ordering::SeqCst);
                ingress.in_flight.fetch_add(1, Ordering::SeqCst);
                let (status, body, hint) = service.route(&mut conn, &request, ingress);
                let retry_after =
                    (status == 503).then(|| hint.unwrap_or_else(|| service.retry_after()));
                let written = write_response_with(&mut stream, status, &body, close, retry_after);
                ingress.in_flight.fetch_sub(1, Ordering::SeqCst);
                if written.is_err() || close {
                    break;
                }
            }
            Ok(None) => break, // clean close (EOF or idle timeout)
            Err(e) => {
                // Malformed request: answer 400 and drop the connection —
                // the stream position is no longer trustworthy.
                let _ = write_response(&mut stream, 400, &error_body(e.to_string()), true);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_gauge_tracks_open_close() {
        let ingress = Arc::new(Ingress::new(4));
        assert_eq!(ingress.active(), 0);
        let first = Slot::open(&ingress);
        let second = Slot::open(&ingress);
        assert_eq!(ingress.active(), 2);
        drop(first);
        assert_eq!(ingress.active(), 1);
        drop(second);
        assert_eq!(ingress.active(), 0);
    }

    #[test]
    fn counters_render_into_healthz() {
        let ingress = Arc::new(Ingress::new(0));
        ingress.accepted.fetch_add(3, Ordering::Relaxed);
        let _slot = Slot::open(&ingress);
        ingress.rejected.fetch_add(1, Ordering::Relaxed);
        ingress.spawn_failures.fetch_add(1, Ordering::Relaxed);
        ingress.in_flight.fetch_add(1, Ordering::SeqCst);
        assert_eq!(ingress.shed(), 2);
        let h = ingress.render(Value::object().with("status", "ok"));
        assert_eq!(h.get("status").and_then(Value::as_str), Some("ok"));
        for (key, want) in [
            ("connections_accepted", 3),
            ("connections_active", 1),
            ("connections_limit", 1), // a zero cap is clamped to one
            ("connections_rejected", 1),
            ("handler_spawn_failures", 1),
            ("requests_in_flight", 1),
        ] {
            assert_eq!(h.get(key).and_then(Value::as_u64), Some(want), "{key}");
        }
    }

    /// A service that echoes the path, answers `/busy` with a hint-less
    /// 503, and counts its requests per connection.
    struct Echo;

    impl Service for Echo {
        type Conn = u64;

        fn route(&self, seen: &mut u64, request: &Request, _: &Ingress) -> Reply {
            *seen += 1;
            let status = if request.path == "/busy" { 503 } else { 200 };
            let body = Value::object()
                .with("path", request.path.as_str())
                .with("seen", *seen);
            (status, body, None)
        }

        fn retry_after(&self) -> u64 {
            9
        }
    }

    /// Keep-alive state survives across requests, a hint-less 503 gets
    /// the service default, and a malformed request gets a 400.
    #[test]
    fn serves_keep_alive_requests_and_defaults_the_retry_hint() {
        let (listener, addr) = bind("127.0.0.1:0").unwrap();
        let frontend = Frontend::serve(listener, addr, 4, Arc::new(Echo));
        let mut conn = crate::http::HttpConnection::connect(&addr.to_string()).unwrap();
        let (status, body) = conn.roundtrip("GET", "/a", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.get("seen").and_then(Value::as_u64), Some(1));
        let (status, body) = conn.roundtrip("GET", "/busy", None).unwrap();
        assert_eq!(status, 503);
        assert_eq!(body.get("seen").and_then(Value::as_u64), Some(2));
        assert_eq!(conn.retry_after(), Some(9));
        drop(conn);

        use std::io::{Read, Write};
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(b"\r\n\r\n").unwrap();
        let mut answer = String::new();
        raw.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
        frontend.stop();
    }
}
