//! Frame transports: how encoded [`Request`]/[`Response`] frames travel.
//!
//! A transport is deliberately dumb — it moves opaque frames and reports
//! closure. All protocol decoding and backpressure policy live in
//! [`crate::service::RoutingService`] and the server loops.
//!
//! Two implementations:
//!
//! * [`InProcHub`] / [`InProcConn`] — a single-threaded, deterministic
//!   in-process transport. Frames still round-trip through the real byte
//!   codec, but delivery is synchronous queue shuffling, so tests can
//!   multiplex hundreds of sessions with reproducible interleavings and
//!   no real time.
//! * [`TcpTransport`] — a blocking `std::net` stream for clients of the
//!   [`crate::server`] daemon.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::rc::Rc;

use dr_netsim::Topology;

use crate::protocol::{frame, ErrorCode, FrameBuf, ProtoError, Request, Response};
use crate::service::{RoutingService, ServiceConfig};

/// Why a transport operation failed.
#[derive(Debug)]
pub enum TransportError {
    /// The peer closed the connection (or the server shut down).
    Closed,
    /// A frame failed the length-prefix discipline (e.g. oversized).
    Proto(ProtoError),
    /// An I/O error from the underlying socket.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "connection closed"),
            TransportError::Proto(e) => write!(f, "framing error: {e}"),
            TransportError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<ProtoError> for TransportError {
    fn from(e: ProtoError) -> TransportError {
        TransportError::Proto(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> TransportError {
        TransportError::Io(e)
    }
}

/// A bidirectional frame pipe between a client and a service.
pub trait Transport {
    /// Send one frame payload (the transport adds the length prefix).
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), TransportError>;

    /// Receive the next frame payload, waiting for it.
    ///
    /// On the in-process transport "waiting" means pumping the service —
    /// if no frame can possibly arrive the call fails with
    /// [`TransportError::Closed`] rather than hanging.
    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError>;

    /// Receive the next frame payload if one is already available.
    fn try_recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError>;
}

// ---------------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------------

struct ConnState {
    /// Frames from the client awaiting service processing.
    from_client: VecDeque<Vec<u8>>,
    /// Frames for the client awaiting pickup.
    to_client: VecDeque<Vec<u8>>,
    /// The session this connection authenticated as (after `Connect`).
    session: Option<u64>,
    open: bool,
}

struct HubInner {
    service: RoutingService,
    conns: Vec<ConnState>,
    queue_cap: usize,
}

impl HubInner {
    /// Process every queued client frame, then distribute outbox pushes.
    fn pump(&mut self) {
        for id in 0..self.conns.len() {
            while let Some(payload) = self.conns[id].from_client.pop_front() {
                let reply = self.dispatch(id, &payload);
                let mut buf = Vec::new();
                reply.encode(&mut buf);
                self.conns[id].to_client.push_back(frame(&buf));
            }
        }
        // Closed connections give up their session (tearing down owned
        // queries) exactly once.
        for id in 0..self.conns.len() {
            if !self.conns[id].open {
                if let Some(sid) = self.conns[id].session.take() {
                    self.service.disconnect(sid);
                }
            }
        }
        self.distribute_outboxes();
    }

    fn dispatch(&mut self, id: usize, payload: &[u8]) -> Response {
        let req = match Request::decode(payload) {
            Ok(req) => req,
            Err(e) => {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("malformed request: {e}"),
                }
            }
        };
        match (self.conns[id].session, req) {
            (None, Request::Connect { .. }) => {
                let (sid, resp) = self.service.connect();
                self.conns[id].session = Some(sid);
                resp
            }
            (None, _) => Response::Error {
                code: ErrorCode::NotConnected,
                message: "the first request must be Connect".to_string(),
            },
            (Some(sid), req) => self.service.apply(sid, req),
        }
    }

    /// Move queued push responses into per-connection delivery queues,
    /// while they have room. A full delivery queue leaves the rest in the
    /// session outbox — which is what makes the service's cursors stop
    /// advancing for that subscriber.
    fn distribute_outboxes(&mut self) {
        for conn in &mut self.conns {
            let Some(sid) = conn.session else { continue };
            let room = self.queue_cap.saturating_sub(conn.to_client.len());
            for resp in self.service.drain_outbox(sid, room) {
                let mut buf = Vec::new();
                resp.encode(&mut buf);
                conn.to_client.push_back(frame(&buf));
            }
        }
    }
}

/// A deterministic in-process service endpoint.
///
/// Cloning the hub clones a handle to the *same* service. Connections are
/// created with [`InProcHub::connect`]; everything is single-threaded and
/// synchronous: a [`Transport::send_frame`] pumps the service inline, so
/// by the time it returns the direct response is already queued.
#[derive(Clone)]
pub struct InProcHub {
    inner: Rc<RefCell<HubInner>>,
}

impl InProcHub {
    /// Start a service over `topology` and expose it in-process.
    pub fn new(topology: Topology, config: ServiceConfig) -> InProcHub {
        let queue_cap = config.subscriber_queue_cap;
        InProcHub {
            inner: Rc::new(RefCell::new(HubInner {
                service: RoutingService::new(topology, config),
                conns: Vec::new(),
                queue_cap,
            })),
        }
    }

    /// Open a new (not yet connected) transport to the service.
    pub fn connect(&self) -> InProcConn {
        let mut inner = self.inner.borrow_mut();
        let id = inner.conns.len();
        inner.conns.push(ConnState {
            from_client: VecDeque::new(),
            to_client: VecDeque::new(),
            session: None,
            open: true,
        });
        InProcConn { hub: Rc::clone(&self.inner), id }
    }

    /// Process queued frames and distribute pushes (normally implicit in
    /// every send/recv; explicit for tests that dropped a connection).
    pub fn pump(&self) {
        self.inner.borrow_mut().pump();
    }

    /// Run `f` against the underlying service (inspection and scheduling
    /// of simulator events in tests and load drivers).
    pub fn with_service<R>(&self, f: impl FnOnce(&mut RoutingService) -> R) -> R {
        f(&mut self.inner.borrow_mut().service)
    }
}

/// One in-process connection. Dropping it closes the session (the service
/// tears down every query the session still owns on the next pump).
pub struct InProcConn {
    hub: Rc<RefCell<HubInner>>,
    id: usize,
}

impl Transport for InProcConn {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let mut inner = self.hub.borrow_mut();
        if !inner.conns[self.id].open {
            return Err(TransportError::Closed);
        }
        inner.conns[self.id].from_client.push_back(payload.to_vec());
        inner.pump();
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        let mut inner = self.hub.borrow_mut();
        inner.pump();
        match inner.conns[self.id].to_client.pop_front() {
            // Strip the length prefix the queue kept for wire fidelity.
            Some(framed) => Ok(framed[4..].to_vec()),
            // Synchronous transport: nothing queued means nothing will
            // ever arrive without another request.
            None => Err(TransportError::Closed),
        }
    }

    fn try_recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        let mut inner = self.hub.borrow_mut();
        inner.pump();
        Ok(inner.conns[self.id].to_client.pop_front().map(|framed| framed[4..].to_vec()))
    }
}

impl Drop for InProcConn {
    fn drop(&mut self) {
        let mut inner = self.hub.borrow_mut();
        inner.conns[self.id].open = false;
        inner.pump();
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// A blocking TCP frame transport (the client side of [`crate::server`]).
pub struct TcpTransport {
    stream: TcpStream,
    buf: FrameBuf,
    scratch: [u8; 64 * 1024],
}

impl TcpTransport {
    /// Connect to a `dr-serviced` endpoint, e.g. `"127.0.0.1:7117"`.
    pub fn dial(addr: &str) -> Result<TcpTransport, TransportError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(TcpTransport { stream, buf: FrameBuf::new(), scratch: [0; 64 * 1024] })
    }
}

impl Transport for TcpTransport {
    fn send_frame(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.stream.write_all(&frame(payload))?;
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Vec<u8>, TransportError> {
        loop {
            if let Some(payload) = self.buf.next_frame()? {
                return Ok(payload);
            }
            let n = self.stream.read(&mut self.scratch)?;
            if n == 0 {
                return Err(TransportError::Closed);
            }
            self.buf.extend(&self.scratch[..n]);
        }
    }

    fn try_recv_frame(&mut self) -> Result<Option<Vec<u8>>, TransportError> {
        if let Some(payload) = self.buf.next_frame()? {
            return Ok(Some(payload));
        }
        self.stream.set_nonblocking(true)?;
        let read = self.stream.read(&mut self.scratch);
        self.stream.set_nonblocking(false)?;
        match read {
            Ok(0) => Err(TransportError::Closed),
            Ok(n) => {
                self.buf.extend(&self.scratch[..n]);
                self.buf.next_frame().map_err(TransportError::from)
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(TransportError::Io(e)),
        }
    }
}
