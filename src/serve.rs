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
//! QUERY [planner=hsp] [format=json|table|csv|tsv] [explain=1]
//!       [threads=N] [timeout_ms=N] [mem_budget_mb=N] [row_budget=N]
//!       [cache=off]
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
//! A query response is rendered straight from the result's id columns
//! into the frame that goes to the socket: each cell's term is borrowed
//! from the dictionary while its bytes are written, so no term row is
//! ever built, cloned or dropped on this path.
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
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hsp_engine::explain::render_runtime_metrics;

use crate::results::Format;
use crate::session::{Planner, Request, Session};

/// Frames larger than this are rejected as a protocol error by whoever
/// reads them; the server answers `ERR TOOLARGE` rather than send one.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// How long a connection thread sleeps in its read poll before
/// re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Write one length-framed payload.
///
/// Header and payload go out in a single `write_all` — two separate
/// writes would make Nagle's algorithm hold the payload segment back
/// until the header's (delayed) ACK, adding tens of milliseconds to
/// every request/response round trip.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    Frame::of(payload).send(w)
}

/// A frame under construction: the payload behind four bytes reserved for
/// the length prefix. The server renders a response straight into one of
/// these, so the bytes are written once and handed to the socket as they
/// are — not rendered, re-formatted behind the status line, and copied
/// again behind the length.
struct Frame(Vec<u8>);

impl Frame {
    /// Bytes reserved in front of the payload for its length.
    const HEADER: usize = 4;

    /// A frame holding a copy of `payload`.
    fn of(payload: &[u8]) -> Frame {
        let mut frame = Vec::with_capacity(Frame::HEADER + payload.len());
        frame.extend_from_slice(&[0; Frame::HEADER]);
        frame.extend_from_slice(payload);
        Frame(frame)
    }

    /// [`Frame::of`] a short text payload (status lines, errors).
    fn text(payload: impl AsRef<str>) -> Frame {
        Frame::of(payload.as_ref().as_bytes())
    }

    /// Build the payload as text: `build` appends to a `String` that
    /// already holds the reserved length bytes — [`Frame::HEADER`] of
    /// them, which `build` must count when it bounds the buffer — and
    /// says whether it completed the payload (`None` if it gave up).
    fn build(build: impl FnOnce(&mut String) -> bool) -> Option<Frame> {
        // The four placeholder bytes are NULs — valid UTF-8 — so the
        // buffer can be a `String` while the payload is written.
        let mut text = String::from("\0\0\0\0");
        build(&mut text).then(|| Frame(text.into_bytes()))
    }

    /// Fill in the length and write the whole frame with one `write_all`
    /// (see [`write_frame`] for why one).
    fn send(mut self, w: &mut impl Write) -> io::Result<()> {
        let len = u32::try_from(self.0.len() - Frame::HEADER)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        self.0[..Frame::HEADER].copy_from_slice(&len.to_be_bytes());
        w.write_all(&self.0)?;
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
#[derive(Default)]
struct FrameReader {
    header: [u8; 4],
    /// Header bytes received so far.
    header_filled: usize,
    /// The payload received so far and the length its header announced;
    /// `None` until the header is complete.
    payload: Option<(Vec<u8>, usize)>,
}

impl FrameReader {
    /// Read until the current frame is complete and return its payload
    /// (`Ok(None)` on clean EOF before its first header byte). Any error
    /// other than `Interrupted` is returned as is; after `WouldBlock` /
    /// `TimedOut` the call can simply be repeated.
    ///
    /// The payload is read into the buffer's spare capacity, which is
    /// reserved but never written before the bytes arrive: a peer's
    /// header alone makes this process touch no memory, and a large frame
    /// is not zero-filled first.
    fn read(&mut self, r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        while self.payload.is_none() {
            if self.header_filled < self.header.len() {
                match r.read(&mut self.header[self.header_filled..]) {
                    Ok(0) if self.header_filled == 0 => return Ok(None),
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => self.header_filled += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
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
        // `read_to_end` appends what arrived before an error, so a timeout
        // loses nothing; it retries `Interrupted` itself.
        let missing = (*len - payload.len()) as u64;
        r.by_ref().take(missing).read_to_end(payload)?;
        if payload.len() < *len {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.payload.take().map(|(payload, _)| payload))
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
    let mut frames = FrameReader::default();
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
    planner: Planner,
    format: Format,
    explain: bool,
    threads: Option<usize>,
    timeout_ms: Option<u64>,
    mem_budget_mb: Option<usize>,
    row_budget: Option<usize>,
    cache: bool,
}

impl ReqOpts {
    fn parse(tokens: std::str::SplitWhitespace<'_>) -> Result<ReqOpts, String> {
        let mut opts = ReqOpts {
            planner: Planner::Hsp,
            format: Format::Json,
            explain: false,
            threads: None,
            timeout_ms: None,
            mem_budget_mb: None,
            row_budget: None,
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
                "planner" => opts.planner = value.parse()?,
                "format" => opts.format = value.parse()?,
                "explain" => opts.explain = flag()?,
                "threads" => opts.threads = Some(int("threads")?.max(1)),
                "timeout_ms" => opts.timeout_ms = Some(int("timeout_ms")? as u64),
                "mem_budget_mb" => opts.mem_budget_mb = Some(int("mem_budget_mb")?),
                "row_budget" => opts.row_budget = Some(int("row_budget")?),
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
        let mut request = Request::new(text).with_planner(self.planner);
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
        if let Some(rows) = self.row_budget {
            request = request.with_row_budget(rows);
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
    // Status line and body are written into the frame itself, the body
    // straight from the id columns.
    let frame = Frame::build(|out| {
        writeln!(
            out,
            "OK rows={} cols={} pool_batches={}",
            response.rows.len(),
            response.columns.len(),
            response.metrics.shared_pool_batches,
        )
        .expect("writing to String");
        if let Some(plan) = &response.explain {
            out.push_str(plan);
            out.push_str(&render_runtime_metrics(&response.metrics));
        } else if let Some(answer) = response.ask {
            opts.format.write_ask(out, answer);
        } else {
            return opts.format.write(out, &response, max_len);
        }
        out.len() <= max_len
    });
    match frame {
        Some(frame) => {
            shared.metrics.queries_ok.fetch_add(1, Ordering::Relaxed);
            frame
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

    #[test]
    fn a_frame_cut_short_is_an_unexpected_eof() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, b"hello").unwrap();
        bytes.pop();
        let err = read_frame(&mut io::Cursor::new(bytes)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A response that would not fit a frame is refused with a typed
    /// error — in every format — and the connection, the admission permit
    /// and the server all stay usable. The cap is lowered for the test;
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
        let both = "SELECT ?p ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n";
        for format in ["json", "csv", "tsv", "table"] {
            let response = client.query(&format!("format={format}"), both).unwrap();
            assert!(
                response.starts_with("ERR TOOLARGE response of 2 rows x 2 columns"),
                "{format}: {response}"
            );
            assert!(!response.contains('\n'), "one line: {response}");
            // Same connection, next request: still in frame.
            assert_eq!(client.ping().unwrap(), "OK pong");
        }
        // The only permit was released each time, and a response that
        // fits the cap is served as usual.
        let one = "SELECT ?n WHERE { <http://e/a1> <http://e/name> ?n . }";
        let response = client.query("format=csv", one).unwrap();
        assert_eq!(response, "OK rows=1 cols=1 pool_batches=0\nn\r\nAlice\r\n");
        assert_eq!(server.metrics().errors(), 4);
        assert_eq!(server.metrics().queries_ok(), 1);
        assert_eq!(server.metrics().rejected(), 0);
        server.shutdown();
    }

    #[test]
    fn ping_stats_and_query_over_tcp() {
        let server = Server::start(demo_session(), ServeConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        assert_eq!(client.ping().unwrap(), "OK pong");
        let response = client
            .query(
                "format=csv",
                "SELECT ?n WHERE { ?p <http://e/name> ?n . } ORDER BY ?n",
            )
            .unwrap();
        let (header, body) = response.split_once('\n').unwrap();
        assert!(header.starts_with("OK rows=2 cols=1"), "{header}");
        assert_eq!(body, "n\r\nAlice\r\nBob\r\n");
        let stats = client.stats().unwrap();
        assert!(stats.contains("queries_ok=1"), "{stats}");
        // The one cached result: its size is reported, nothing evicted.
        let cache = server.session().cache_stats();
        assert!(cache.result_bytes > 0);
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
