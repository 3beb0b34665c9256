//! Concurrent query serving: a framed-TCP front door over one
//! [`Session`] — many clients, one dataset, one shared morsel pool.
//!
//! # Protocol
//!
//! Length-framed messages both ways: a 4-byte big-endian payload length,
//! then that many bytes of UTF-8. A request payload is one header line
//! plus an optional body:
//!
//! ```text
//! QUERY [format=json|table|csv|tsv] [explain=1] [threads=N]
//!       [timeout_ms=N] [mem_budget_mb=N] [cache=off]
//! <query text>
//!
//! UPDATE [timeout_ms=N] [mem_budget_mb=N]
//! <update text>
//!
//! PING | STATS | SHUTDOWN
//! ```
//!
//! Responses are `OK <k=v …>\n<body>` or a single-line
//! `ERR <CODE> <message>` with codes `PARSE`, `PLAN`, `EXEC`, `TIMEOUT`,
//! `CANCELLED`, `MEM`, `BUSY`, `PROTO`, `SHUTDOWN`,
//! `TOOLARGE` (the rendered result would not fit a frame of
//! [`MAX_FRAME_BYTES`]; rendering stops at the cap and the connection
//! stays usable — narrow the query or add `LIMIT`).
//!
//! A miss, or a request with `cache=off`, is rendered on the connection's
//! thread straight from the result's id columns into the frame that goes
//! to the socket, behind the status line: each cell's term is borrowed
//! from the dictionary while its bytes are written, so no term row is ever
//! built, cloned or dropped on this path. A result-cache hit sends the
//! body its entry stores for the format — the entry's first hit in that
//! format renders it and stores it — so a repeated request costs a lookup
//! and one vectored write of the status line and the shared body. Every
//! hit checks the stored body against this server's cap.
//!
//! Each connection reads its requests through a fixed 8 KiB buffer, so a
//! request frame that arrived whole costs one `read` call, header and
//! payload together, and bytes of a pipelined next frame wait in the
//! buffer for the next request. The thread polls with a 50 ms read
//! timeout (to notice shutdown); a frame cut by a timeout resumes where it
//! stopped. An announced length is checked against [`MAX_FRAME_BYTES`]
//! before anything of it is reserved, and a payload larger than the
//! buffer is read straight into its own allocation.
//!
//! # Concurrency
//!
//! One thread per connection, but **not** one worker pool per query:
//! every admitted request executes on the session's shared morsel pool,
//! which round-robins morsel batches across the queries in flight (the
//! pool's `cross_query_switches` counter, surfaced by `STATS`, proves
//! it). Admission control bounds the requests actually executing
//! (`max_inflight`) and the requests waiting for a slot (`max_queue`);
//! beyond that the server answers `ERR BUSY` instead of queueing without
//! bound. Updates go through the same session and publish by pointer
//! swap, so in-flight reads keep their snapshot.

use std::fmt::Write as _;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hsp_engine::explain::render_runtime_metrics;

use crate::cache::{Body, BodySlots};
use crate::results::Format;
use crate::session::{EncodedResponse, Request, Session};

/// Frames larger than this are rejected as a protocol error by whoever
/// reads them; the server answers `ERR TOOLARGE` rather than send one.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// How long a connection thread sleeps in its read poll before
/// re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Write one length-framed payload.
///
/// Header and payload go out together — two separate writes would make
/// Nagle's algorithm hold the payload segment back until the header's
/// (delayed) ACK, adding tens of milliseconds to every request/response
/// round trip.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    Frame::of(payload).send(w)
}

/// A frame under construction: a head — four bytes reserved for the
/// length prefix, then the start of the payload — and, on a result-tier
/// hit, the body its entry stores, which follows the head. The server
/// renders a response straight into the head — the status line, then the
/// body — and [`Frame::send`] hands the pieces to the socket as they are:
/// never re-formatted behind the status line, copied behind the length,
/// or concatenated into one buffer.
struct Frame {
    head: Vec<u8>,
    body: Option<Body>,
}

impl Frame {
    /// Bytes reserved in front of the payload for its length.
    const HEADER: usize = 4;

    /// A frame holding a copy of `payload`.
    fn of(payload: &[u8]) -> Frame {
        let mut head = Vec::with_capacity(Frame::HEADER + payload.len());
        head.extend_from_slice(&[0; Frame::HEADER]);
        head.extend_from_slice(payload);
        Frame { head, body: None }
    }

    /// [`Frame::of`] a short text payload (status lines, errors).
    fn text(payload: impl AsRef<str>) -> Frame {
        Frame::of(payload.as_ref().as_bytes())
    }

    /// An empty head to write the payload's start into as text: the four
    /// placeholder bytes are NULs — valid UTF-8 — so it can be a `String`
    /// while it is written. They count against a bound on its length. It
    /// starts with room for a status line and a body's head, so a small
    /// response is written without growing it.
    fn head() -> String {
        let mut head = String::with_capacity(256);
        head.push_str("\0\0\0\0");
        head
    }

    /// Fill in the length and write the head and the body — together, as
    /// [`write_frame`] explains — until all of it is out, through short
    /// writes and `Interrupted`. A frame without a body is one
    /// `write_all`; one with a body goes out with vectored writes. (On
    /// Linux a socket's `write_vectored` is a `writev`, which costs a few
    /// hundred nanoseconds more per call than the `send` behind `write`:
    /// measurable on a request of ten microseconds, so it is kept to the
    /// frames that need it.)
    fn send(mut self, w: &mut impl Write) -> io::Result<()> {
        let body = self.body.take();
        let body = body.as_deref().unwrap_or("").as_bytes();
        let payload = self.head.len() - Frame::HEADER + body.len();
        let len = u32::try_from(payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        self.head[..Frame::HEADER].copy_from_slice(&len.to_be_bytes());
        if body.is_empty() {
            w.write_all(&self.head)?;
            return w.flush();
        }
        let mut slices = [IoSlice::new(&self.head), IoSlice::new(body)];
        let mut pending = &mut slices[..];
        while !pending.is_empty() {
            match w.write_vectored(pending) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut pending, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        w.flush()
    }
}

/// Read one length-framed payload; `Ok(None)` on clean EOF before the
/// first header byte.
///
/// Meant for blocking streams: on a reader with a timeout, an error of
/// kind `WouldBlock` / `TimedOut` loses the bytes already consumed (the
/// server keeps a resumable reader per connection instead).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    FrameReader::default().read(r)
}

/// Incremental frame reader: remembers how much of the current frame's
/// header and payload has arrived, so a read that times out part-way
/// through a frame resumes where it stopped instead of losing the bytes
/// already consumed and parsing payload bytes as the next length header.
///
/// [`FrameReader::buffered`] adds a fixed-size read buffer: a frame that
/// arrived whole is taken in one `read` call, and bytes of a following
/// (pipelined) frame stay buffered for the next call. The default reader
/// has no buffer and never reads past the frame it returns, which is what
/// a one-shot [`read_frame`] needs.
#[derive(Default)]
struct FrameReader {
    /// Read buffer; bytes `at..filled` have arrived but are not consumed
    /// yet. Empty (never filled) for an unbuffered reader.
    buf: Box<[u8]>,
    at: usize,
    filled: usize,
    header: [u8; 4],
    /// Header bytes received so far.
    header_filled: usize,
    /// The payload received so far and the length its header announced;
    /// `None` until the header is complete.
    payload: Option<(Vec<u8>, usize)>,
}

/// Read buffer of a server connection: a request frame up to this size
/// that arrived whole is taken in one `read` call.
const READ_BUFFER_BYTES: usize = 8 * 1024;

impl FrameReader {
    /// A reader with a [`READ_BUFFER_BYTES`] read buffer.
    fn buffered() -> Self {
        FrameReader {
            buf: vec![0; READ_BUFFER_BYTES].into(),
            ..FrameReader::default()
        }
    }

    /// Read until the current frame is complete and return its payload
    /// (`Ok(None)` on clean EOF before its first header byte). Any error
    /// other than `Interrupted` is returned as is; after `WouldBlock` /
    /// `TimedOut` the call can simply be repeated.
    ///
    /// Nothing of a frame's announced length is reserved before the
    /// length is checked against [`MAX_FRAME_BYTES`]. A payload too large
    /// for the buffer is read into its own spare capacity, which is
    /// reserved but never written before the bytes arrive: a peer's header
    /// alone makes this process touch no memory, and a large frame is not
    /// zero-filled first.
    fn read(&mut self, r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        while self.payload.is_none() {
            if self.header_filled < self.header.len() {
                let want = &mut self.header[self.header_filled..];
                let n = if self.buf.is_empty() {
                    // Unbuffered: read the header bytes themselves.
                    match r.read(want) {
                        Ok(0) if self.header_filled == 0 => return Ok(None),
                        Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                        Ok(n) => n,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    }
                } else {
                    if self.at == self.filled {
                        match fill(r, &mut self.buf)? {
                            0 if self.header_filled == 0 => return Ok(None),
                            0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                            n => (self.at, self.filled) = (0, n),
                        }
                    }
                    let n = want.len().min(self.filled - self.at);
                    want[..n].copy_from_slice(&self.buf[self.at..self.at + n]);
                    self.at += n;
                    n
                };
                self.header_filled += n;
                continue;
            }
            self.header_filled = 0;
            let len = u32::from_be_bytes(self.header) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
                ));
            }
            self.payload = Some((Vec::with_capacity(len), len));
        }
        let (payload, len) = self.payload.as_mut().expect("header complete");
        loop {
            let n = (*len - payload.len()).min(self.filled - self.at);
            payload.extend_from_slice(&self.buf[self.at..self.at + n]);
            self.at += n;
            let missing = *len - payload.len();
            if missing == 0 {
                break;
            }
            if missing >= self.buf.len() {
                // Straight into the payload: `read_to_end` appends what
                // arrived before an error, so a timeout loses nothing; it
                // retries `Interrupted` itself.
                r.by_ref().take(missing as u64).read_to_end(payload)?;
                if payload.len() < *len {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                break;
            }
            match fill(r, &mut self.buf)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => (self.at, self.filled) = (0, n),
            }
        }
        Ok(self.payload.take().map(|(payload, _)| payload))
    }
}

/// One `read` into `buf`, retrying `Interrupted`.
fn fill(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match r.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Requests allowed to execute at once; further requests queue.
    pub max_inflight: usize,
    /// Requests allowed to wait for an execution slot; beyond this the
    /// server answers `ERR BUSY` immediately.
    pub max_queue: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_inflight: 8,
            max_queue: 16,
        }
    }
}

/// Lifetime request counters, readable while the server runs.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    connections: AtomicU64,
    queries_ok: AtomicU64,
    updates_ok: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
}

impl ServeMetrics {
    /// Connections accepted.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Queries answered `OK`.
    pub fn queries_ok(&self) -> u64 {
        self.queries_ok.load(Ordering::Relaxed)
    }

    /// Updates answered `OK`.
    pub fn updates_ok(&self) -> u64 {
        self.updates_ok.load(Ordering::Relaxed)
    }

    /// Requests answered `ERR` (any code but `BUSY`).
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Requests rejected by admission control (`ERR BUSY`).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

/// The counting-semaphore admission gate: `max_inflight` permits, at
/// most `max_queue` waiters, reject beyond that.
struct Admission {
    max_inflight: usize,
    max_queue: usize,
    /// `(executing, waiting)`.
    state: Mutex<(usize, usize)>,
    freed: Condvar,
}

enum AdmitError {
    Busy,
    ShuttingDown,
}

struct Permit<'a>(&'a Admission);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self
            .0
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.0 -= 1;
        self.0.freed.notify_one();
    }
}

impl Admission {
    fn new(max_inflight: usize, max_queue: usize) -> Self {
        Admission {
            max_inflight: max_inflight.max(1),
            max_queue,
            state: Mutex::new((0, 0)),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self, shutdown: &AtomicBool) -> Result<Permit<'_>, AdmitError> {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.0 < self.max_inflight {
            state.0 += 1;
            return Ok(Permit(self));
        }
        if state.1 >= self.max_queue {
            return Err(AdmitError::Busy);
        }
        state.1 += 1;
        loop {
            if shutdown.load(Ordering::Acquire) {
                state.1 -= 1;
                return Err(AdmitError::ShuttingDown);
            }
            if state.0 < self.max_inflight {
                state.0 += 1;
                state.1 -= 1;
                return Ok(Permit(self));
            }
            // Timed wait so waiters notice shutdown.
            let (guard, _) = self
                .freed
                .wait_timeout(state, POLL_INTERVAL)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
        }
    }
}

struct ServerShared {
    session: Session,
    admission: Admission,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    /// Largest response payload sent: [`MAX_FRAME_BYTES`] (tests lower it).
    max_frame: usize,
}

/// The server factory; see [`Server::start`].
pub struct Server;

impl Server {
    /// Bind `config.addr` and serve `session` until
    /// [`ServerHandle::shutdown`] is called (or a client sends
    /// `SHUTDOWN`).
    pub fn start(session: Session, config: ServeConfig) -> io::Result<ServerHandle> {
        Server::start_capped(session, config, MAX_FRAME_BYTES)
    }

    /// [`Server::start`] with the response cap as a parameter.
    fn start_capped(
        session: Session,
        config: ServeConfig,
        max_frame: usize,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ServerShared {
            session: session.clone(),
            admission: Admission::new(config.max_inflight, config.max_queue),
            metrics: ServeMetrics::default(),
            shutdown: AtomicBool::new(false),
            max_frame,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("hsp-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            session,
        })
    }
}

/// A running server: its bound address and its off switch.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
    session: Session,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served session (e.g. to read [`Session::pool_stats`]).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Request counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Stop accepting, finish in-flight requests, join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Block until the server stops (a client sent `SHUTDOWN`).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut conn_id = 0u64;
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Small framed request/response round trips: Nagle only
                // adds delayed-ACK latency here.
                let _ = stream.set_nodelay(true);
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                conn_id += 1;
                let handle = std::thread::Builder::new()
                    .name(format!("hsp-serve-conn-{conn_id}"))
                    .spawn(move || connection_loop(stream, conn_shared))
                    .expect("spawning a connection thread");
                conns.push(handle);
                // Opportunistically reap finished connections so a
                // long-lived server doesn't accumulate handles.
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => break,
        }
    }
    for conn in conns {
        let _ = conn.join();
    }
}

fn connection_loop(stream: TcpStream, shared: Arc<ServerShared>) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    // Short read timeouts so the thread notices shutdown between reads —
    // also part-way through a frame from a slow writer, which is why the
    // reader keeps its place across timeouts.
    let _ = reader.set_read_timeout(Some(POLL_INTERVAL));
    let mut frames = FrameReader::buffered();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let payload = match frames.read(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // client hung up
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        let (response, stop) = match std::str::from_utf8(&payload) {
            Ok(text) => handle_request(&shared, text),
            Err(_) => (Frame::text("ERR PROTO request is not UTF-8"), false),
        };
        if response.send(&mut writer).is_err() {
            return;
        }
        if stop {
            shared.shutdown.store(true, Ordering::Release);
            return;
        }
    }
}

/// Options parsed from a request header line.
struct ReqOpts {
    format: Format,
    explain: bool,
    threads: Option<usize>,
    timeout_ms: Option<u64>,
    mem_budget_mb: Option<usize>,
    cache: bool,
}

impl ReqOpts {
    fn parse(tokens: std::str::SplitWhitespace<'_>) -> Result<ReqOpts, String> {
        let mut opts = ReqOpts {
            format: Format::Json,
            explain: false,
            threads: None,
            timeout_ms: None,
            mem_budget_mb: None,
            cache: true,
        };
        for token in tokens {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("malformed option `{token}` (expected k=v)"))?;
            let int = |name: &str| -> Result<usize, String> {
                value
                    .parse::<usize>()
                    .map_err(|_| format!("option {name} needs an integer, got `{value}`"))
            };
            let flag = || match value {
                "1" | "true" => Ok(true),
                "0" | "false" => Ok(false),
                _ => Err(format!("option {key} needs 0|1|true|false, got `{value}`")),
            };
            match key {
                "format" => opts.format = value.parse()?,
                "explain" => opts.explain = flag()?,
                "threads" => opts.threads = Some(int("threads")?.max(1)),
                "timeout_ms" => opts.timeout_ms = Some(int("timeout_ms")? as u64),
                "mem_budget_mb" => opts.mem_budget_mb = Some(int("mem_budget_mb")?),
                "cache" => {
                    opts.cache = match value {
                        "on" => true,
                        "off" => false,
                        _ => flag()?,
                    }
                }
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(opts)
    }

    fn request(&self, text: &str) -> Request {
        let mut request = Request::new(text);
        if self.explain {
            request = request.with_explain();
        }
        if let Some(threads) = self.threads {
            request = request.with_threads(threads);
        }
        if let Some(ms) = self.timeout_ms {
            request = request.with_timeout_ms(ms);
        }
        if let Some(mb) = self.mem_budget_mb {
            request = request.with_mem_budget_mb(mb);
        }
        if !self.cache {
            request = request.without_cache();
        }
        request
    }
}

/// One line, whatever the source error looked like.
fn flat(msg: impl std::fmt::Display) -> String {
    msg.to_string().replace('\n', "; ")
}

/// Dispatch one request payload; returns the response frame and whether
/// the server should shut down.
fn handle_request(shared: &ServerShared, payload: &str) -> (Frame, bool) {
    let (header, body) = match payload.split_once('\n') {
        Some((header, body)) => (header, body),
        None => (payload, ""),
    };
    let mut tokens = header.split_whitespace();
    let command = tokens.next().unwrap_or("");
    match command {
        "PING" => (Frame::text("OK pong"), false),
        "STATS" => (Frame::text(render_stats(shared)), false),
        "SHUTDOWN" => (Frame::text("OK bye"), true),
        "QUERY" | "UPDATE" => {
            let opts = match ReqOpts::parse(tokens) {
                Ok(opts) => opts,
                Err(e) => {
                    shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    return (Frame::text(format!("ERR PROTO {}", flat(e))), false);
                }
            };
            let permit = match shared.admission.acquire(&shared.shutdown) {
                Ok(permit) => permit,
                Err(AdmitError::Busy) => {
                    shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    return (
                        Frame::text(format!(
                            "ERR BUSY server at capacity ({} executing, {} queued)",
                            shared.admission.max_inflight, shared.admission.max_queue
                        )),
                        false,
                    );
                }
                Err(AdmitError::ShuttingDown) => {
                    shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                    return (Frame::text("ERR SHUTDOWN server is shutting down"), false);
                }
            };
            let response = if command == "QUERY" {
                run_query(shared, &opts, body)
            } else {
                run_update(shared, &opts, body)
            };
            drop(permit);
            (response, false)
        }
        other => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            (
                Frame::text(format!(
                    "ERR PROTO unknown command `{}` (QUERY|UPDATE|PING|STATS|SHUTDOWN)",
                    flat(other)
                )),
                false,
            )
        }
    }
}

fn run_query(shared: &ServerShared, opts: &ReqOpts, text: &str) -> Frame {
    let response = match shared.session.query_encoded(opts.request(text)) {
        Ok(response) => response,
        Err(e) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            return Frame::text(format!("ERR {} {}", e.code(), flat(e)));
        }
    };
    let max_len = Frame::HEADER + shared.max_frame;
    // The status line goes into the frame's head, and so does the body —
    // rendered straight from the id columns — unless the response is a
    // result-tier hit, whose body its entry stores. `pool_batches=` counts
    // the execution's batches.
    let mut head = Frame::head();
    writeln!(
        head,
        "OK rows={} cols={} pool_batches={}",
        response.rows.len(),
        response.columns.len(),
        response.metrics.shared_pool_batches,
    )
    .expect("writing to String");
    // `None`: the response does not fit a frame. `Some(None)`: the head
    // holds all of it.
    let body = if let Some(plan) = &response.explain {
        head.push_str(plan);
        head.push_str(&render_runtime_metrics(&response.metrics));
        (head.len() <= max_len).then_some(None)
    } else if let Some(answer) = response.ask {
        opts.format.write_ask(&mut head, answer);
        (head.len() <= max_len).then_some(None)
    } else if let Some(slots) = &response.bodies {
        let room = max_len.saturating_sub(head.len());
        hit_body(&shared.session, slots, opts.format, &response, room).map(Some)
    } else {
        opts.format
            .write(&mut head, &response, max_len)
            .then_some(None)
    };
    match body {
        Some(body) => {
            shared.metrics.queries_ok.fetch_add(1, Ordering::Relaxed);
            Frame {
                head: head.into_bytes(),
                body,
            }
        }
        None => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            Frame::text(format!(
                "ERR TOOLARGE response of {} rows x {} columns exceeds the {}-byte frame cap; \
                 narrow the query or add LIMIT",
                response.rows.len(),
                response.columns.len(),
                shared.max_frame,
            ))
        }
    }
}

/// The body of a result-tier hit in `format`, when it fits in `max_len`
/// bytes: the body its entry stores, or — on the entry's first hit in
/// `format` — the body rendered as a miss's is, then stored for the next
/// hit. A stored body is checked against this server's cap, whichever
/// server stored it; a body over the cap is refused and never stored.
fn hit_body(
    session: &Session,
    slots: &BodySlots,
    format: Format,
    response: &EncodedResponse,
    max_len: usize,
) -> Option<Body> {
    if let Some(body) = slots.get(format) {
        return (body.len() <= max_len).then(|| Arc::clone(body));
    }
    let mut text = String::new();
    if !format.write(&mut text, response, max_len) {
        return None;
    }
    let body: Body = text.into();
    session.store_body(slots, format, &body);
    Some(body)
}

fn run_update(shared: &ServerShared, opts: &ReqOpts, text: &str) -> Frame {
    match shared.session.update(opts.request(text)) {
        Ok(response) => {
            shared.metrics.updates_ok.fetch_add(1, Ordering::Relaxed);
            Frame::text(format!(
                "OK inserted={} deleted={} triples={}",
                response.stats.inserted, response.stats.deleted, response.triples
            ))
        }
        Err(e) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            Frame::text(format!("ERR {} {}", e.code(), flat(e)))
        }
    }
}

fn render_stats(shared: &ServerShared) -> String {
    let m = &shared.metrics;
    let snapshot = shared.session.snapshot();
    let mut body = format!(
        "connections={}\nqueries_ok={}\nupdates_ok={}\nerrors={}\nrejected={}\ntriples={}\n",
        m.connections(),
        m.queries_ok(),
        m.updates_ok(),
        m.errors(),
        m.rejected(),
        snapshot.len(),
    );
    body.push_str(&format!(
        "store_version={}\nstore_delta_rows={}\nstore_compactions={}\n",
        snapshot.store().version(),
        snapshot.store().delta_rows(),
        snapshot.store().compactions(),
    ));
    let cache = shared.session.cache_stats();
    body.push_str(&format!(
        "plan_cache_hits={}\nplan_cache_misses={}\nresult_cache_hits={}\n\
         result_cache_misses={}\nresult_cache_invalidations={}\nresult_cache_entries={}\n\
         result_cache_bytes={}\nresult_cache_evictions={}\n",
        cache.plan_hits,
        cache.plan_misses,
        cache.result_hits,
        cache.result_misses,
        cache.invalidations,
        cache.result_entries,
        cache.result_bytes,
        cache.result_evictions,
    ));
    if let Some(pool) = shared.session.pool_stats() {
        body.push_str(&format!(
            "pool_threads={}\npool_batches={}\npool_tasks={}\npool_cross_query_switches={}\n",
            pool.threads, pool.batches, pool.tasks, pool.cross_query_switches,
        ));
    }
    format!("OK\n{body}")
}

/// A minimal blocking client for the framed protocol — used by the CLI
/// smoke mode, the integration tests, and the serve benchmark.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Mirrors the server side: frames are small and latency-bound.
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Send one raw request payload, wait for the response payload.
    pub fn request(&mut self, payload: &str) -> io::Result<String> {
        write_frame(&mut self.stream, payload.as_bytes())?;
        let response = read_frame(&mut self.stream)?
            .ok_or_else(|| io::Error::from(io::ErrorKind::UnexpectedEof))?;
        String::from_utf8(response)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))
    }

    /// `QUERY` with a `k=v …` option string (may be empty).
    pub fn query(&mut self, options: &str, text: &str) -> io::Result<String> {
        self.request(&format!("QUERY {options}\n{text}"))
    }

    /// `UPDATE` with a `k=v …` option string (may be empty).
    pub fn update(&mut self, options: &str, text: &str) -> io::Result<String> {
        self.request(&format!("UPDATE {options}\n{text}"))
    }

    /// `STATS`, as the raw response payload.
    pub fn stats(&mut self) -> io::Result<String> {
        self.request("STATS")
    }

    /// `PING`, expecting `OK pong`.
    pub fn ping(&mut self) -> io::Result<String> {
        self.request("PING")
    }

    /// Ask the server to shut down.
    pub fn shutdown(&mut self) -> io::Result<String> {
        self.request("SHUTDOWN")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_session() -> Session {
        let ds = hsp_store::Dataset::from_ntriples(
            r#"<http://e/a1> <http://e/name> "Alice" .
<http://e/a2> <http://e/name> "Bob" .
"#,
        )
        .unwrap();
        Session::new(ds)
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::from(u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"xx");
        let mut cursor = io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// Hands out one byte per `read`, with a `WouldBlock` before each —
    /// the slowest writer a timed-out socket read can look like.
    struct Trickle {
        bytes: Vec<u8>,
        at: usize,
        ready: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.ready = !self.ready;
            if self.ready {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            match self.bytes.get(self.at) {
                Some(&byte) if !buf.is_empty() => {
                    buf[0] = byte;
                    self.at += 1;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn a_frame_trickling_in_bytewise_between_timeouts_arrives_exact() {
        let payloads: [&[u8]; 3] = [
            b"QUERY format=csv\nSELECT ?s WHERE { ?s ?p ?o . }",
            b"",
            b"PING",
        ];
        let mut bytes = Vec::new();
        for payload in payloads {
            write_frame(&mut bytes, payload).unwrap();
        }
        let mut source = Trickle {
            bytes,
            at: 0,
            ready: false,
        };
        let mut frames = FrameReader::default();
        let mut next = || loop {
            match frames.read(&mut source) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                other => return other.expect("no error but WouldBlock"),
            }
        };
        for payload in payloads {
            assert_eq!(next().as_deref(), Some(payload));
        }
        assert_eq!(next(), None, "clean EOF after the last frame");
    }

    /// Hands out scripted arrivals: each `read` returns what one arrival
    /// holds (as much as fits), `None` arrivals are timeouts, and the end
    /// of the script is EOF. Counts the `read` calls.
    struct Arrivals {
        script: std::collections::VecDeque<Option<Vec<u8>>>,
        reads: usize,
    }

    impl Arrivals {
        fn new(script: impl IntoIterator<Item = Option<Vec<u8>>>) -> Self {
            Arrivals {
                script: script.into_iter().collect(),
                reads: 0,
            }
        }
    }

    impl Read for Arrivals {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            match self.script.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(mut bytes)) => {
                    let n = buf.len().min(bytes.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.script.push_front(Some(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn two_frames_arriving_in_one_read_come_out_as_two_exact_payloads() {
        let (first, second): (&[u8], &[u8]) = (b"QUERY\nSELECT ?s WHERE { ?s ?p ?o . }", b"PING");
        let mut bytes = Vec::new();
        write_frame(&mut bytes, first).unwrap();
        write_frame(&mut bytes, second).unwrap();
        let mut source = Arrivals::new([Some(bytes)]);
        let mut frames = FrameReader::buffered();
        assert_eq!(frames.read(&mut source).unwrap().as_deref(), Some(first));
        assert_eq!(source.reads, 1, "a frame that arrived whole takes one read");
        assert_eq!(frames.read(&mut source).unwrap().as_deref(), Some(second));
        assert_eq!(
            source.reads, 1,
            "the pipelined frame was kept from that read"
        );
        assert_eq!(frames.read(&mut source).unwrap(), None, "clean EOF");
    }

    #[test]
    fn a_frame_whose_payload_straddles_a_timeout_resumes() {
        let payload = b"QUERY format=csv\nSELECT ?s WHERE { ?s ?p ?o . }".as_slice();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, payload).unwrap();
        write_frame(&mut bytes, b"PING").unwrap();
        // Header and part of the payload, a timeout, the rest of the
        // payload with half the next header, a timeout, the rest.
        let (a, rest) = bytes.split_at(4 + 10);
        let (b, c) = rest.split_at(payload.len() - 10 + 2);
        let mut source = Arrivals::new([
            Some(a.to_vec()),
            None,
            Some(b.to_vec()),
            None,
            Some(c.to_vec()),
        ]);
        let mut frames = FrameReader::buffered();
        let timeout = frames.read(&mut source).unwrap_err();
        assert_eq!(timeout.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(frames.read(&mut source).unwrap().as_deref(), Some(payload));
        let timeout = frames.read(&mut source).unwrap_err();
        assert_eq!(timeout.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(
            frames.read(&mut source).unwrap().as_deref(),
            Some(&b"PING"[..])
        );
        assert_eq!(frames.read(&mut source).unwrap(), None, "clean EOF");
        // A payload larger than the buffer reads around it, and resumes
        // the same way.
        let big = vec![b'x'; 3 * READ_BUFFER_BYTES];
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &big).unwrap();
        let (a, b) = bytes.split_at(READ_BUFFER_BYTES + 100);
        let mut source = Arrivals::new([Some(a.to_vec()), None, Some(b.to_vec())]);
        let timeout = frames.read(&mut source).unwrap_err();
        assert_eq!(timeout.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(frames.read(&mut source).unwrap(), Some(big));
    }

    /// Takes one to seven bytes per call, across as many of the offered
    /// slices as that covers, and fails every fifth call with
    /// `Interrupted` — the shortest writes a socket can make.
    #[derive(Default)]
    struct Dribble {
        bytes: Vec<u8>,
        calls: usize,
        interrupted: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(5) {
                self.interrupted += 1;
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut quota = 1 + self.calls % 7;
            let mut taken = 0;
            for buf in bufs {
                let n = quota.min(buf.len());
                self.bytes.extend_from_slice(&buf[..n]);
                (taken, quota) = (taken + n, quota - n);
                if quota == 0 {
                    break;
                }
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_in_pieces_survives_short_and_interrupted_writes() {
        let status = "OK rows=3 cols=1 pool_batches=0\n";
        let body = "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[{},\
                    {\"x\":{\"type\":\"literal\",\"value\":\"Zoë ☃\"}},{}]}}";
        let mut head = Frame::head();
        head.push_str(status);
        let frame = Frame {
            head: head.into_bytes(),
            body: Some(body.into()),
        };
        let mut sink = Dribble::default();
        frame.send(&mut sink).unwrap();
        let mut want = Vec::new();
        write_frame(&mut want, format!("{status}{body}").as_bytes()).unwrap();
        assert_eq!(sink.bytes, want);
        assert!(sink.interrupted > 0 && sink.calls > want.len() / 7);
        // The client's frames go through the same loop.
        let mut sink = Dribble::default();
        write_frame(&mut sink, b"PING").unwrap();
        assert_eq!(sink.bytes, b"\0\0\0\x04PING");
    }

    #[test]
    fn a_frame_cut_short_is_an_unexpected_eof() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"hello").unwrap();
        bytes.pop();
        let err = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A response that would not fit a frame is refused with a typed
    /// error — in every format, as a miss and as a result-tier hit, which
    /// then stores no body — and the connection, the admission permit and
    /// the server all stay usable. The cap is lowered for the test;
    /// [`Server::start`] passes [`MAX_FRAME_BYTES`] through the same path.
    #[test]
    fn oversized_responses_are_refused_and_the_connection_stays_usable() {
        let config = ServeConfig {
            max_inflight: 1,
            max_queue: 0,
            ..ServeConfig::default()
        };
        let server = Server::start_capped(demo_session(), config, 64).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let cached_bytes = || server.session().cache_stats().result_bytes;
        let both = "SELECT ?p ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n";
        let mut entry_bytes = None;
        for format in ["json", "csv", "tsv", "table"] {
            for attempt in 0..2 {
                let response = client.query(&format!("format={format}"), both).unwrap();
                assert!(
                    response.starts_with("ERR TOOLARGE response of 2 rows x 2 columns"),
                    "{format} #{attempt}: {response}"
                );
                assert!(!response.contains('\n'), "one line: {response}");
                // The first request cached the ids; no refusal stores a body.
                let bytes = *entry_bytes.get_or_insert_with(cached_bytes);
                assert_eq!(cached_bytes(), bytes, "{format} #{attempt} stored a body");
                // Same connection, next request: still in frame.
                assert_eq!(client.ping().unwrap(), "OK pong");
            }
        }
        let stats = server.session().cache_stats();
        assert_eq!((stats.result_misses, stats.result_hits), (1, 7));
        // The only permit was released each time, and a response that
        // fits the cap is served as usual.
        let one = "SELECT ?n WHERE { <http://e/a1> <http://e/name> ?n . }";
        let response = client.query("format=csv", one).unwrap();
        assert_eq!(response, "OK rows=1 cols=1 pool_batches=0\nn\r\nAlice\r\n");
        assert_eq!(server.metrics().errors(), 8);
        assert_eq!(server.metrics().queries_ok(), 1);
        assert_eq!(server.metrics().rejected(), 0);
        server.shutdown();

        // A result of many blocks on a session whose pipelines run on its
        // pool: the reply is the same one line, and the permit, the pool
        // and the connection all stay usable.
        let rows = 2000;
        let data: String = (0..rows)
            .map(|i| format!("<http://e/s{i}> <http://e/name> \"name \\\"{i}\\\", and more\" .\n"))
            .collect();
        let options = crate::session::SessionOptions {
            pool_threads: Some(2),
            morsel_rows: Some(1000),
            min_parallel_rows: Some(0),
            ..Default::default()
        };
        let session =
            Session::with_options(hsp_store::Dataset::from_ntriples(&data).unwrap(), options);
        let cap = 2048;
        let config = ServeConfig {
            max_inflight: 1,
            max_queue: 0,
            ..ServeConfig::default()
        };
        let server = Server::start_capped(session, config, cap).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let all = "SELECT ?p ?n WHERE { ?p <http://e/name> ?n . }";
        let refusal = format!(
            "ERR TOOLARGE response of {rows} rows x 2 columns exceeds the {cap}-byte frame cap; \
             narrow the query or add LIMIT"
        );
        for name in ["json", "csv", "tsv"] {
            // A miss or hit, then a hit: the hit renders too, and stores
            // nothing.
            for attempt in 0..2 {
                let bytes = server.session().cache_stats().result_bytes;
                let reply = client
                    .query(&format!("format={name} threads=2"), all)
                    .unwrap();
                assert_eq!(reply, refusal, "{name} #{attempt}");
                if bytes > 0 {
                    let after = server.session().cache_stats().result_bytes;
                    assert_eq!(after, bytes, "{name} #{attempt} stored a body");
                }
                assert_eq!(client.ping().unwrap(), "OK pong");
            }
        }
        // The one permit came back each time; a result that fits is served
        // as usual.
        let few = "SELECT ?p ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?p LIMIT 12";
        let reply = client.query("format=csv threads=2", few).unwrap();
        assert!(reply.starts_with("OK rows=12 cols=2"), "{reply}");
        assert_eq!(reply.lines().count(), 1 + 1 + 12);
        assert_eq!(server.metrics().errors(), 6);
        assert_eq!(server.metrics().queries_ok(), 1);
        assert_eq!(server.metrics().rejected(), 0);
        server.shutdown();
    }

    #[test]
    fn ping_stats_and_query_over_tcp() {
        let server = Server::start(demo_session(), ServeConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.ping().unwrap(), "OK pong");
        let text = "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n";
        let mut entry_bytes = 0;
        // A miss, a hit that stores its CSV body, a hit that sends it.
        for attempt in 0..3 {
            let response = client.query("format=csv", text).unwrap();
            let (header, body) = response.split_once('\n').unwrap();
            assert!(header.starts_with("OK rows=2 cols=1"), "{header}");
            assert_eq!(body, "n\r\nAlice\r\nBob\r\n", "#{attempt}");
            if attempt == 0 {
                entry_bytes = server.session().cache_stats().result_bytes;
            }
        }
        let stats = client.stats().unwrap();
        assert!(stats.contains("queries_ok=3"), "{stats}");
        // The one cached result, its stored body included: its size is
        // reported, nothing evicted.
        let cache = server.session().cache_stats();
        assert!(cache.result_bytes > entry_bytes && entry_bytes > 0);
        for line in [
            "result_cache_entries=1".to_string(),
            format!("result_cache_bytes={}", cache.result_bytes),
            "result_cache_evictions=0".to_string(),
        ] {
            assert!(stats.lines().any(|l| l == line), "{line} in {stats}");
        }
        server.shutdown();
    }

    #[test]
    fn protocol_errors_are_reported() {
        let server = Server::start(demo_session(), ServeConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let response = client.request("FROBNICATE\n").unwrap();
        assert!(response.starts_with("ERR PROTO"), "{response}");
        let response = client.query("format=xml", "ASK { ?s ?p ?o . }").unwrap();
        assert!(response.starts_with("ERR PROTO"), "{response}");
        let response = client.query("", "SELECT ?x WHERE { broken").unwrap();
        assert!(response.starts_with("ERR PARSE"), "{response}");
        server.shutdown();
    }

    #[test]
    fn boolean_options_parse_strictly() {
        let parse = |header: &str| ReqOpts::parse(header.split_whitespace());
        for (header, explain, cache) in [
            ("explain=1 cache=0", true, false),
            ("explain=true cache=false", true, false),
            ("explain=0 cache=1", false, true),
            ("explain=false cache=true", false, true),
            ("cache=off", false, false),
            ("cache=on", false, true),
        ] {
            let opts = parse(header).unwrap_or_else(|e| panic!("{header}: {e}"));
            assert_eq!((opts.explain, opts.cache), (explain, cache), "{header}");
        }
        for header in [
            "explain=yes",
            "explain=on",
            "explain=",
            "cache=offf",
            "cache=2",
        ] {
            let err = parse(header).err().expect(header);
            assert!(err.contains("0|1|true|false"), "{header}: {err}");
        }
    }

    #[test]
    fn shutdown_command_stops_the_server() {
        let server = Server::start(demo_session(), ServeConfig::default()).unwrap();
        let addr = server.addr();
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.shutdown().unwrap(), "OK bye");
        server.join();
        // The listener is gone; new connections fail once the OS drops
        // the accept queue (give it a moment).
        std::thread::sleep(Duration::from_millis(100));
        let refused = Client::connect(addr).and_then(|mut c| c.ping()).is_err();
        assert!(refused);
    }
}
