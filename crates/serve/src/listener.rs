//! The transport the daemon ([`crate::server`]) and the fleet router
//! ([`crate::router`]) share: one accept loop, one frame loop, one
//! connection writer, the drain poke, and the background ticker.
//!
//! A service plugs in through [`Service`]: it says what to do with a
//! frame that failed to decode (the daemon counts `rejected.*`, the router
//! counts `router.malformed`) and with a request that decoded; everything
//! between the socket and those two hooks lives here. [`serve`] runs the
//! whole lifecycle, so every exit — a `shutdown` request or a fatal accept
//! error — flips the service into drain mode, runs its drain, and joins
//! its ticker before returning.

use crate::proto::{read_frame, Frame, Request, Response, CODE_FRAME_TOO_LARGE, MAX_FRAME_BYTES};
use hsconas_telemetry::Counter;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Locks `mutex`, taking the guard back from a poisoned lock: one
/// panicking connection or worker thread must not wedge every later
/// request.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The write half of one client connection. Lines go through the mutex so
/// inline answers and worker answers never interleave bytes.
pub(crate) struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    /// Writes one response line.
    pub(crate) fn send(&self, response: &Response) {
        self.send_line(response.encode());
    }

    /// Writes `line` plus its newline in one `write_all`. Errors are
    /// swallowed: the client hanging up early must not take the answering
    /// thread down with it.
    pub(crate) fn send_line(&self, mut line: String) {
        line.push('\n');
        let mut guard = lock(&self.stream);
        let _ = guard.write_all(line.as_bytes());
        let _ = guard.flush();
    }
}

/// Drain state of a listening service, plus the address its acceptor
/// listens on.
pub(crate) struct Gate {
    draining: AtomicBool,
    addr: SocketAddr,
}

impl Gate {
    pub(crate) fn new(addr: SocketAddr) -> Gate {
        Gate {
            draining: AtomicBool::new(false),
            addr,
        }
    }

    /// The bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the service has stopped admitting work.
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Flips into drain mode and pokes the acceptor awake with a throwaway
    /// connection (std's blocking `accept` has nothing like a deadline).
    pub(crate) fn begin_shutdown(&self) {
        if !self.draining.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect(self.addr);
        }
    }
}

/// One service behind the shared transport.
pub(crate) trait Service: Send + Sync + 'static {
    /// Per-connection state the request hook keeps between frames.
    type Session: Default;

    /// Thread-name prefix: `{NAME}-conn` per connection, `{NAME}-tick`
    /// for the ticker.
    const NAME: &'static str;

    /// The service's drain state.
    fn gate(&self) -> &Gate;

    /// Counts accepted connections.
    fn connections(&self) -> &Counter;

    /// Interval of the background ticker; `None` runs no ticker.
    fn tick_every(&self) -> Option<Duration>;

    /// One background tick (hot-reload poll, health sweep).
    fn tick(&self);

    /// A frame failed before decoding; `response` is its 400 or 413.
    fn frame_rejected(&self, conn: &ConnWriter, response: Response);

    /// A request decoded; `line` is its frame as received.
    fn request(
        &self,
        conn: &Arc<ConnWriter>,
        session: &mut Self::Session,
        line: &[u8],
        request: Request,
    );
}

/// Serves `listener` until the service's gate starts draining or accept
/// fails fatally. Either way it then marks the gate draining, runs
/// `drain`, joins the ticker, and returns the accept error if there was
/// one.
pub(crate) fn serve<S: Service>(
    listener: &TcpListener,
    service: &Arc<S>,
    drain: impl FnOnce(),
) -> io::Result<()> {
    let ticker = spawn_ticker(service);
    let accepted = match &ticker {
        Ok(_) => accept(listener, service),
        Err(_) => Ok(()),
    };
    service.gate().draining.store(true, Ordering::Release);
    drain();
    if let Some(ticker) = ticker? {
        let _ = ticker.join();
    }
    accepted
}

fn spawn_ticker<S: Service>(service: &Arc<S>) -> io::Result<Option<JoinHandle<()>>> {
    let Some(interval) = service.tick_every() else {
        return Ok(None);
    };
    let service = Arc::clone(service);
    thread::Builder::new()
        .name(format!("{}-tick", S::NAME))
        .spawn(move || {
            while !service.gate().is_draining() {
                thread::sleep(interval);
                service.tick();
            }
        })
        .map(Some)
}

fn accept<S: Service>(listener: &TcpListener, service: &Arc<S>) -> io::Result<()> {
    for stream in listener.incoming() {
        if service.gate().is_draining() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
            Err(e) => return Err(e),
        };
        // One-line frames; without TCP_NODELAY the Nagle/delayed-ACK
        // interaction costs ~40 ms per request on loopback (the router
        // pays it twice: client hop + shard hop).
        let _ = stream.set_nodelay(true);
        service.connections().incr();
        let service = Arc::clone(service);
        // Detached: a connection blocked in read must not block drain.
        let _ = thread::Builder::new()
            .name(format!("{}-conn", S::NAME))
            .spawn(move || frames(service.as_ref(), stream));
    }
    Ok(())
}

/// The per-connection frame loop: blank lines are skipped, oversized and
/// undecodable frames go to [`Service::frame_rejected`], decoded requests
/// to [`Service::request`].
fn frames<S: Service>(service: &S, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnWriter {
        stream: Mutex::new(write_half),
    });
    let mut session = S::Session::default();
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Err(_) | Ok(Frame::Eof) => break,
            Ok(Frame::Oversized) => service.frame_rejected(
                &conn,
                Response::fail(
                    "",
                    CODE_FRAME_TOO_LARGE,
                    format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
                ),
            ),
            Ok(Frame::Line(line)) => {
                if line.iter().all(u8::is_ascii_whitespace) {
                    continue;
                }
                match Request::decode(&line) {
                    Err(e) => service.frame_rejected(
                        &conn,
                        Response::fail(e.id.unwrap_or_default(), e.code, e.detail),
                    ),
                    Ok(request) => service.request(&conn, &mut session, &line, request),
                }
            }
        }
    }
}
