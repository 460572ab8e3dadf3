//! The listener both servers run: the accept loop, the connection cap
//! and its shed, the keep-alive request loop with its read timeout and
//! request deadline, framing errors, the `accept` fault hook, and
//! shutdown. What a request *means* is the caller's handler; everything
//! about getting it off the wire is here, once.
//!
//! Public because the sibling `fq-dispatch` crate serves its front door
//! on exactly this listener.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use fq_faults::{FaultKind, FaultPlan, FaultSite};
use frozenqubits::FqError;

use crate::error::error_response;
use crate::http::{self, ReadError, Request, Response};

/// What the listener enforces on every connection.
#[derive(Clone, Debug)]
pub struct Limits {
    /// Most concurrent connections served; beyond it new connections
    /// are shed immediately with `503` instead of spawning unboundedly
    /// many threads. Must be ≥ 1.
    pub max_connections: usize,
    /// Largest accepted request body, in bytes; beyond it → `413`.
    pub max_body_bytes: usize,
    /// Socket read timeout — bounds how long any single read may block.
    pub read_timeout: Duration,
    /// Wall-clock budget for receiving one complete request; past it
    /// the request fails with `400`.
    pub request_deadline: Duration,
    /// Chaos fault injection: when set, every accepted connection rolls
    /// [`FaultSite::Accept`].
    pub fault_plan: Option<Arc<FaultPlan>>,
}

/// A bound socket that is not serving yet.
#[derive(Debug)]
pub struct Listener {
    socket: TcpListener,
    addr: SocketAddr,
    limits: Limits,
    stop: Arc<AtomicBool>,
}

impl Listener {
    /// Validates `limits` and binds `addr`.
    ///
    /// # Errors
    ///
    /// [`FqError::InvalidConfig`] for a zero `max_connections`;
    /// [`FqError::Io`] when the bind fails.
    pub fn bind(addr: &str, limits: Limits) -> Result<Listener, FqError> {
        if limits.max_connections == 0 {
            return Err(FqError::InvalidConfig(
                "max_connections must be at least 1".into(),
            ));
        }
        let socket = TcpListener::bind(addr)?;
        let addr = socket.local_addr()?;
        Ok(Listener {
            socket,
            addr,
            limits,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The flag shutdown sets, for background threads that must stop
    /// with the server.
    #[must_use]
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Starts the accept loop on a thread named `{name}-accept`; each
    /// connection runs on its own `{name}-conn` thread and answers every
    /// request with `handler`. `drain` runs once on shutdown, after the
    /// accept loop has stopped: it closes the queue and joins the
    /// workers and any other background thread.
    ///
    /// # Errors
    ///
    /// [`FqError::Io`] when the accept thread cannot start; `drain` has
    /// then already run, so nothing is left behind.
    pub fn serve<H>(
        self,
        name: &str,
        handler: H,
        drain: impl FnOnce() + Send + 'static,
    ) -> Result<ServerHandle, FqError>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let Listener {
            socket,
            addr,
            limits,
            stop,
        } = self;
        let service = Arc::new(Service {
            limits,
            handler,
            stop: Arc::clone(&stop),
            conn_name: format!("{name}-conn"),
        });
        let spawned = thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn(move || accept_loop(&socket, &service));
        match spawned {
            Ok(accept) => Ok(ServerHandle {
                addr,
                stop,
                accept: Some(accept),
                drain: Some(Box::new(drain)),
            }),
            Err(e) => {
                // Unwind what is already running: otherwise the workers
                // block on a never-closed queue forever.
                stop.store(true, Ordering::SeqCst);
                drain();
                Err(FqError::Io(format!("spawning the accept thread: {e}")))
            }
        }
    }
}

/// A running server: address discovery plus orderly shutdown.
///
/// Dropping the handle shuts the server down (stops accepting, closes
/// the queue, drains queued jobs through the workers, joins them), so a
/// test that panics still releases its port and threads.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    drain: Option<Box<dyn FnOnce() + Send>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The actual bound address (resolves `:0` ephemeral binds).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains already-queued jobs through the workers,
    /// and joins the accept and worker threads.
    pub fn shutdown(mut self) {
        self.stop_internal();
    }

    /// Blocks the calling thread for the server's lifetime (a binary's
    /// main loop). Returns only if the accept loop exits, then performs
    /// the same cleanup as [`ServerHandle::shutdown`].
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.stop_internal();
    }

    fn stop_internal(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop: `TcpListener::accept` has no timeout, so
        // poke it with a throwaway connection. A `0.0.0.0`/`[::]` bind
        // is not connectable on every platform — poke loopback instead.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(drain) = self.drain.take() {
            drain();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_internal();
    }
}

/// What every connection thread shares.
struct Service<H> {
    limits: Limits,
    handler: H,
    stop: Arc<AtomicBool>,
    conn_name: String,
}

/// Decrements the live-connection count even if a handler panics.
struct ConnectionSlot(Arc<AtomicUsize>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Refuses an over-cap connection with `503`, then drains the client's
/// already-sent request bytes before closing. Closing with unread data
/// in the receive queue makes the kernel RST the connection and discard
/// the queued response — the client would see "connection reset"
/// instead of the 503 (a race the connection-cap test hits under load).
/// The drain is bounded by a short read timeout so a hostile peer can
/// only hold the accept thread briefly.
fn shed_connection(mut stream: TcpStream) {
    let _ = error_response(503, "overloaded", "connection limit reached")
        .write(&mut stream, false)
        .and_then(|()| stream.shutdown(std::net::Shutdown::Write));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut scratch = [0u8; 4096];
    while matches!(std::io::Read::read(&mut stream, &mut scratch), Ok(n) if n > 0) {}
}

fn accept_loop<H>(socket: &TcpListener, service: &Arc<Service<H>>)
where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let active = Arc::new(AtomicUsize::new(0));
    for conn in socket.incoming() {
        if service.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(stream) => stream,
            Err(_) => {
                // Persistent accept errors (e.g. fd exhaustion) would
                // otherwise busy-spin this thread at 100% CPU; back off
                // briefly so in-flight connections can release fds.
                thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        // Connection cap: beyond it, shed load with an immediate 503
        // instead of spawning an unbounded number of threads.
        if active.load(Ordering::SeqCst) >= service.limits.max_connections {
            shed_connection(stream);
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let slot = ConnectionSlot(Arc::clone(&active));
        let service = Arc::clone(service);
        // Connection threads are detached: each is bounded by the
        // per-request deadline + read timeout, counted against
        // `max_connections`, and closed (`connection: close`) once
        // `stop` is set.
        let spawned = thread::Builder::new()
            .name(service.conn_name.clone())
            .spawn(move || {
                let _slot = slot;
                handle_connection(stream, &service);
            });
        // Spawn failure: `slot` moved into the closure that never ran —
        // it is dropped with the error, releasing the count.
        drop(spawned);
    }
}

/// Serves one connection: a keep-alive loop of read → handle → respond.
/// Framing errors answer with the mapped status (when one applies) and
/// close; the loop also closes once shutdown has begun.
fn handle_connection<H>(mut stream: TcpStream, service: &Service<H>)
where
    H: Fn(&Request) -> Response,
{
    let limits = &service.limits;
    if let Some(plan) = &limits.fault_plan {
        match plan.roll(FaultSite::Accept) {
            // Drop the accepted connection before reading a byte — the
            // client sees a reset/EOF, the transport shape of a server
            // dying between `connect` and its first response.
            Some(FaultKind::Refuse) => return,
            // Sit on the connection (paused-server / slow-loris shape):
            // the client's read blocks until its own timeout fires.
            Some(FaultKind::Stall(ms)) => thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
    }
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(http::DeadlineReader::new(read_half));
    loop {
        // Arm the slow-drip guard: this whole request must arrive within
        // `request_deadline` (reads already in flight add at most one
        // `read_timeout`).
        reader.get_mut().arm(limits.request_deadline);
        match http::read_request(&mut reader, limits.max_body_bytes) {
            Ok(request) => {
                let keep_alive = request.keep_alive && !service.stop.load(Ordering::SeqCst);
                let response = (service.handler)(&request);
                if response.write(&mut stream, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(error) => {
                if let Some(status) = error.status() {
                    let kind = match &error {
                        ReadError::PayloadTooLarge { .. } => "payload_too_large",
                        ReadError::NotImplemented(_) => "not_implemented",
                        ReadError::VersionNotSupported(_) => "http_version",
                        _ => "bad_request",
                    };
                    let _ =
                        error_response(status, kind, &error.message()).write(&mut stream, false);
                }
                return;
            }
        }
    }
}
