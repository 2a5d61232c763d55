//! Non-blocking TCP front door: `epoll` reactor threads multiplexing
//! every connection, with the worker pool doing the actual prediction.
//!
//! An OS thread per client would pin a stack for every mostly-idle
//! monitoring connection. This module runs a classic event loop instead:
//!
//! * every connection is **non-blocking** and registered with one epoll
//!   instance; idle connections cost a file descriptor and a small
//!   line-stream core, not a thread;
//! * complete JSON lines are parsed on the reactor thread and handed to
//!   a [`Frontend`] — for [`AtlasService`] that means predictions go to
//!   the worker pool via [`AtlasService::submit_with`]; the worker's
//!   reply is queued and the owning reactor is woken through its
//!   `eventfd` to write it out;
//! * **back-pressure**: a connection that stops reading its responses
//!   (write buffer above [`ReactorConfig::write_high_water`]) or floods
//!   requests (more than [`ReactorConfig::max_inflight`] outstanding)
//!   has its read side paused until it drains — a slow client can never
//!   balloon server memory;
//! * a **connection limit** ([`ReactorConfig::max_connections`]): beyond
//!   it, new connections get a one-line `overloaded` error and are
//!   closed.
//!
//! # Scaling out: [`ReactorPool::spawn`]
//!
//! One reactor thread is plenty for a handful of clients, but accept,
//! read, parse, and write for *every* connection then share one core.
//! [`ReactorPool::spawn`] — the only way to start the front door —
//! starts N reactors (`--reactor-threads`, one by default), each with
//! its **own** epoll instance, listener, connection table, eventfd, and
//! counters. The listeners all bind the same address with
//! `SO_REUSEPORT`, so the kernel spreads incoming connections across
//! them with no shared accept lock; when the platform refuses the
//! option the pool falls back to N dup'd handles of one listener (a
//! shared kernel accept queue — level-triggered epoll means losers of
//! an accept race simply see `WouldBlock`). Worker completions always route back to the
//! reactor that owns the connection, because the [`Completer`] captured
//! at submit time holds that reactor's queue.
//!
//! The total OS-thread budget of a TCP `serve` process is therefore
//! `worker_count + reactors + 1` (workers + N reactors + main),
//! independent of connection count.
//!
//! # Upstream connections
//!
//! A relaying frontend (the shard proxy) names its servers in
//! [`Frontend::upstreams`] and hands requests to them through
//! [`FrontendContext::forward`]. Each reactor keeps its own non-blocking
//! connection to each upstream in its connection table, so relaying adds
//! no thread or lock, and no upstream can block a reactor (see
//! [`CONNECT_TIMEOUT`], [`RECONNECT_COOLDOWN`]).
//!
//! The `stats` protocol verb is answered inline on the reactor thread —
//! it is a counter snapshot and never needs a worker.
//!
//! # One line-stream core
//!
//! Every line stream frames through one file-descriptor-free
//! `ConnCore`: it takes the bytes a transport read and yields request
//! lines, or one refusal for a line over
//! [`ReactorConfig::max_line_bytes`]; it serves an unterminated last
//! line at end of stream, queues reply lines and counts those written,
//! counts requests in flight, and reports read and write interest with
//! the back-pressure hysteresis. A reactor connection is a socket, a
//! core and its registered epoll mask. The `serve` binary's stdio mode,
//! [`serve_lines`], feeds a core from a blocking reader with no reactor
//! thread, and each upstream connection frames its replies through one.
//! So every verb has one implementation, and every stream one framing,
//! whichever transport carries it.
//!
//! # Why raw syscalls?
//!
//! The build environment has no registry access (see `vendor/`), so
//! instead of `mio`/`tokio` the private `sys` module declares the libc
//! symbols the loop needs (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `eventfd`, `socket`, `setsockopt`, `bind`, `listen`, `connect`,
//! `close`)
//! directly — std already links libc on Linux. This is the same
//! vendoring policy as the serde/rand shims: the exact API subset the
//! workspace uses, swappable for the real crates when a registry is
//! available.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{self, BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::protocol::{self, ErrorResponse, RequestLine};
use crate::service::AtlasService;

/// Minimal FFI shim over the epoll/eventfd syscalls (Linux only). Kept
/// under the `vendor/` policy: exactly the surface the reactor uses.
mod sys {
    use std::io;

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;
    /// Linux errno: too many open files (process fd limit).
    pub const EMFILE: i32 = 24;
    /// Linux errno: too many open files (system fd limit).
    pub const ENFILE: i32 = 23;

    /// Mirror of `struct epoll_event`. x86-64 packs it so the 64-bit
    /// payload sits at offset 4; other Linux targets use natural layout.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut core::ffi::c_void, count: usize) -> isize;
        fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An owned file descriptor closed on drop (epoll instance, eventfd).
    #[derive(Debug)]
    pub struct OwnedFd(pub i32);

    impl Drop for OwnedFd {
        fn drop(&mut self) {
            unsafe {
                let _ = close(self.0);
            }
        }
    }

    pub fn epoll_create() -> io::Result<OwnedFd> {
        // SAFETY: no pointers involved; flags is a valid constant.
        unsafe { cvt(epoll_create1(EPOLL_CLOEXEC)).map(OwnedFd) }
    }

    pub fn ctl(epfd: i32, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        unsafe { cvt(epoll_ctl(epfd, op, fd, &mut ev)).map(|_| ()) }
    }

    pub fn ctl_del(epfd: i32, fd: i32) -> io::Result<()> {
        // A null event is allowed for EPOLL_CTL_DEL since Linux 2.6.9.
        unsafe { cvt(epoll_ctl(epfd, EPOLL_CTL_DEL, fd, core::ptr::null_mut())).map(|_| ()) }
    }

    /// Wait for events, retrying on `EINTR`.
    pub fn wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the buffer is valid for `events.len()` entries.
            let n =
                unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    pub fn new_eventfd() -> io::Result<OwnedFd> {
        // SAFETY: no pointers involved.
        unsafe { cvt(eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)).map(OwnedFd) }
    }

    /// Add 1 to the eventfd counter, waking an epoll waiter.
    pub fn eventfd_signal(fd: i32) {
        let one: u64 = 1;
        // SAFETY: writes exactly 8 bytes from a live stack value. A full
        // counter (EAGAIN) still leaves it nonzero, which is all we need.
        unsafe {
            let _ = write(fd, (&one as *const u64).cast(), 8);
        }
    }

    /// Reset the eventfd counter to zero.
    pub fn eventfd_drain(fd: i32) {
        let mut buf: u64 = 0;
        // SAFETY: reads exactly 8 bytes into a live stack value.
        unsafe {
            let _ = read(fd, (&mut buf as *mut u64).cast(), 8);
        }
    }

    // ---- raw sockets: SO_REUSEPORT listeners, non-blocking dials ----

    pub const AF_INET: u16 = 2;
    pub const AF_INET6: u16 = 10;
    pub const SOCK_STREAM: i32 = 1;
    pub const SOCK_CLOEXEC: i32 = 0o2000000;
    pub const SOCK_NONBLOCK: i32 = 0o4000;
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_REUSEADDR: i32 = 2;
    pub const SO_REUSEPORT: i32 = 15;
    /// Linux errno: a non-blocking connect is under way.
    pub const EINPROGRESS: i32 = 115;

    /// Mirror of `struct sockaddr_in` (Linux). Port and address are in
    /// network byte order.
    #[repr(C)]
    pub struct SockAddrIn {
        pub sin_family: u16,
        pub sin_port: u16,
        pub sin_addr: u32,
        pub sin_zero: [u8; 8],
    }

    /// Mirror of `struct sockaddr_in6` (Linux). Port and flow info are in
    /// network byte order.
    #[repr(C)]
    pub struct SockAddrIn6 {
        pub sin6_family: u16,
        pub sin6_port: u16,
        pub sin6_flowinfo: u32,
        pub sin6_addr: [u8; 16],
        pub sin6_scope_id: u32,
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn connect(fd: i32, addr: *const core::ffi::c_void, len: u32) -> i32;
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const core::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }

    fn sockaddr_in(addr: std::net::SocketAddrV4) -> SockAddrIn {
        SockAddrIn {
            sin_family: AF_INET,
            sin_port: addr.port().to_be(),
            sin_addr: u32::from_be_bytes(addr.ip().octets()).to_be(),
            sin_zero: [0; 8],
        }
    }

    /// A fresh non-blocking, close-on-exec TCP socket of `family`.
    fn tcp_socket(family: u16) -> io::Result<OwnedFd> {
        // SAFETY: no pointers involved; constants are valid.
        unsafe {
            cvt(socket(
                family as i32,
                SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK,
                0,
            ))
            .map(OwnedFd)
        }
    }

    impl OwnedFd {
        /// Give up ownership: the caller closes the descriptor.
        fn into_raw(self) -> i32 {
            let fd = self.0;
            core::mem::forget(self);
            fd
        }
    }

    /// Create a non-blocking IPv4 listener bound with `SO_REUSEPORT`
    /// (plus `SO_REUSEADDR`, matching std) and an accept queue of
    /// `backlog`. Fails if the platform refuses the option — the caller
    /// falls back to a shared accept queue.
    pub fn reuseport_listener(
        addr: std::net::SocketAddrV4,
        backlog: i32,
    ) -> io::Result<std::net::TcpListener> {
        use std::os::unix::io::FromRawFd;

        // Owned, so every early return below closes it.
        let owned = tcp_socket(AF_INET)?;
        let one: i32 = 1;
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            // SAFETY: `one` outlives the call; the kernel copies 4 bytes.
            unsafe {
                cvt(setsockopt(
                    owned.0,
                    SOL_SOCKET,
                    opt,
                    (&one as *const i32).cast(),
                    4,
                ))?;
            }
        }
        let sa = sockaddr_in(addr);
        // SAFETY: `sa` outlives the call; the length matches the struct.
        unsafe {
            cvt(bind(
                owned.0,
                &sa,
                core::mem::size_of::<SockAddrIn>() as u32,
            ))?;
            cvt(listen(owned.0, backlog))?;
        }
        // SAFETY: the fd is a fresh, owned listening socket.
        Ok(unsafe { std::net::TcpListener::from_raw_fd(owned.into_raw()) })
    }

    /// Start a non-blocking TCP connect to `addr` (IPv4 or IPv6). The
    /// stream comes back before the handshake ends: writability then
    /// reports the outcome, and `SO_ERROR` ([`std::net::TcpStream::take_error`])
    /// a failure.
    pub fn connect_nonblocking(addr: std::net::SocketAddr) -> io::Result<std::net::TcpStream> {
        use std::net::SocketAddr;
        use std::os::unix::io::FromRawFd;

        let family = if addr.is_ipv4() { AF_INET } else { AF_INET6 };
        let owned = tcp_socket(family)?;
        // SAFETY: each address struct outlives its call; the lengths
        // match the structs.
        let ret = match addr {
            SocketAddr::V4(v4) => unsafe {
                let sa = sockaddr_in(v4);
                connect(
                    owned.0,
                    (&sa as *const SockAddrIn).cast(),
                    core::mem::size_of::<SockAddrIn>() as u32,
                )
            },
            SocketAddr::V6(v6) => unsafe {
                let sa = SockAddrIn6 {
                    sin6_family: AF_INET6,
                    sin6_port: v6.port().to_be(),
                    sin6_flowinfo: v6.flowinfo().to_be(),
                    sin6_addr: v6.ip().octets(),
                    sin6_scope_id: v6.scope_id(),
                };
                connect(
                    owned.0,
                    (&sa as *const SockAddrIn6).cast(),
                    core::mem::size_of::<SockAddrIn6>() as u32,
                )
            },
        };
        if ret < 0 {
            let err = io::Error::last_os_error();
            if err.raw_os_error() != Some(EINPROGRESS) {
                return Err(err);
            }
        }
        // SAFETY: the fd is a fresh, owned socket.
        Ok(unsafe { std::net::TcpStream::from_raw_fd(owned.into_raw()) })
    }
}

/// Tuning knobs of the event-loop front door.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Connections beyond this are answered with a one-line `overloaded`
    /// error and closed.
    pub max_connections: usize,
    /// A request line longer than this closes the connection (the
    /// framing is broken; there is no way to resynchronize).
    pub max_line_bytes: usize,
    /// Pause reading from a connection whose un-flushed response bytes
    /// exceed this; resume below half of it.
    pub write_high_water: usize,
    /// Pause reading from a connection with this many predictions still
    /// in the worker pool; resume as replies drain.
    pub max_inflight: usize,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            max_connections: 4096,
            max_line_bytes: 1 << 20,
            write_high_water: 256 << 10,
            max_inflight: 64,
        }
    }
}

/// Monotonic counters of one reactor, readable from any thread.
/// Serializable so the `stats` verb can report per-reactor accept and
/// back-pressure skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct ReactorStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the connection limit.
    pub rejected: u64,
    /// Connections closed (any reason).
    pub closed: u64,
    /// Connections currently open.
    pub active: u64,
    /// Prediction requests forwarded to the worker pool.
    pub requests: u64,
    /// Response lines fully written back.
    pub responses: u64,
    /// Times a connection's read side was paused for back-pressure.
    pub pauses: u64,
    /// Forwarded requests this reactor answered `unavailable` because
    /// their upstream failed them: it was cooling down, could not be
    /// dialed, stopped reading, or closed with them pending.
    pub upstream_failures: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected: AtomicU64,
    closed: AtomicU64,
    active: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    pauses: AtomicU64,
    upstream_failures: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ReactorStats {
        ReactorStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            closed: self.closed.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            pauses: self.pauses.load(Ordering::Relaxed),
            upstream_failures: self.upstream_failures.load(Ordering::Relaxed),
        }
    }

    /// Answer a forwarded request with its upstream's `error`, counted.
    fn fail_upstream(&self, completer: Completer, error: ServeError) {
        self.upstream_failures.fetch_add(1, Ordering::Relaxed);
        completer.fail(error);
    }
}

/// A finished reply — or one intermediate frame of a streamed reply —
/// on its way back to a connection.
struct Completion {
    token: u64,
    line: String,
    /// `false` for an intermediate frame: the request stays in flight
    /// for back-pressure accounting until its final completion arrives.
    last: bool,
}

/// The worker→reactor handoff: workers push rendered reply lines and
/// signal the eventfd; the reactor drains on wakeup.
struct Completions {
    queue: Mutex<Vec<Completion>>,
    wake: sys::OwnedFd,
    shutdown: AtomicBool,
}

impl Completions {
    fn new() -> io::Result<Completions> {
        Ok(Completions {
            queue: Mutex::new(Vec::new()),
            wake: sys::new_eventfd()?,
            shutdown: AtomicBool::new(false),
        })
    }

    fn push(&self, token: u64, line: String, last: bool) {
        self.queue
            .lock()
            .expect("completion lock")
            .push(Completion { token, line, last });
        sys::eventfd_signal(self.wake.0);
    }

    /// Register the wakeup eventfd with the epoll instance `ep`.
    fn watch(&self, ep: &sys::OwnedFd) -> io::Result<()> {
        sys::ctl(
            ep.0,
            sys::EPOLL_CTL_ADD,
            self.wake.0,
            sys::EPOLLIN,
            TOKEN_WAKE,
        )
    }

    fn drain(&self) -> Vec<Completion> {
        sys::eventfd_drain(self.wake.0);
        std::mem::take(&mut *self.queue.lock().expect("completion lock"))
    }
}

/// An owned ticket for answering one request asynchronously. Captured
/// by [`Frontend::handle`] when the reply will come later (from a worker,
/// or from an upstream); completing it queues the line and wakes the
/// reactor that owns the connection.
///
/// Every completer answers exactly once: one dropped without its final
/// line (a worker that died, a job discarded at shutdown) answers a
/// `shutdown` error echoing its request id, so no request stays in
/// flight forever.
pub struct Completer {
    token: u64,
    /// The client's request id, echoed by [`Completer::fail`].
    id: Option<u64>,
    completions: Arc<Completions>,
    /// Set once the final line is queued.
    answered: AtomicBool,
}

impl Completer {
    /// The client's id of the request this completer answers.
    pub fn id(&self) -> Option<u64> {
        self.id
    }

    /// Queue `line` as the final reply and wake the owning reactor. The
    /// request leaves the connection's in-flight count when the line is
    /// delivered.
    pub fn complete(&self, line: String) {
        // Relaxed: only `drop` reads the flag, through `&mut self`, which
        // already orders it after every completing thread.
        self.answered.store(true, Ordering::Relaxed);
        self.completions.push(self.token, line, true);
    }

    /// Complete with a typed error reply echoing the request id.
    pub fn fail(&self, error: ServeError) {
        self.complete(protocol::render_result(&Err((self.id, error))));
    }

    /// Queue `line` as one intermediate frame of a streamed reply
    /// (`sweep` frames). The request stays in flight — exactly one
    /// [`Completer::complete`] must still follow, and frames are written
    /// out as they arrive instead of buffering whole in the reactor.
    pub fn stream(&self, line: String) {
        self.completions.push(self.token, line, false);
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        if !*self.answered.get_mut() {
            self.fail(ServeError::Shutdown);
        }
    }
}

/// The counters of every reactor serving one address, in reactor order,
/// shared so the `stats` verb can report per-reactor accept and
/// back-pressure skew from any reactor thread.
type Registry = Arc<[Arc<Counters>]>;

fn snapshot(registry: &[Arc<Counters>]) -> Vec<ReactorStats> {
    registry.iter().map(|c| c.snapshot()).collect()
}

/// How long a dial to an upstream may take before the requests waiting
/// on it fail with `unavailable`.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// How long an upstream whose dial failed stays "down" before the next
/// request may dial it again. Without it, every request routed to a dead
/// upstream pays its own dial — a reconnect storm that peaks exactly when
/// the fleet is already degraded.
pub const RECONNECT_COOLDOWN: Duration = Duration::from_millis(500);

/// What a frontend forwards: (upstream, id, completer, line).
type Forward = (usize, u64, Completer, String);

/// The per-request view a reactor hands to its [`Frontend`]: enough to
/// reply later ([`FrontendContext::completer`]), to forward the request
/// to an upstream ([`FrontendContext::forward`]) and to report the I/O
/// plane's shape in `stats` replies.
pub struct FrontendContext<'a> {
    token: u64,
    completions: &'a Arc<Completions>,
    registry: &'a [Arc<Counters>],
    /// Forwards for the reactor to send once the line is dispatched;
    /// `None` where there is no reactor (stdio).
    forwards: Option<&'a RefCell<Vec<Forward>>>,
}

impl FrontendContext<'_> {
    /// An owned ticket for replying to this request, whose client id is
    /// `id`, from another thread.
    pub fn completer(&self, id: Option<u64>) -> Completer {
        Completer {
            token: self.token,
            id,
            completions: Arc::clone(self.completions),
            answered: AtomicBool::new(false),
        }
    }

    /// Send `line` to upstream `upstream` (an index into
    /// [`Frontend::upstreams`]) on the reactor's own connection to it.
    /// Its reply lines, which carry `id`, answer `completer`: streamed
    /// frames as they arrive, through the first line that is not one.
    pub fn forward(&self, upstream: usize, id: u64, completer: Completer, line: String) {
        match self.forwards {
            Some(forwards) => forwards.borrow_mut().push((upstream, id, completer, line)),
            None => completer.fail(ServeError::Unavailable("no upstreams over stdio".into())),
        }
    }

    /// Number of reactor threads serving this listen address.
    pub fn reactor_threads(&self) -> usize {
        self.registry.len()
    }

    /// Per-reactor counter snapshots, in reactor order.
    pub fn reactor_stats(&self) -> Vec<ReactorStats> {
        snapshot(self.registry)
    }
}

/// What a reactor (or [`serve_lines`]) serves: one request line in, one
/// reply line out.
///
/// Return `Some(reply)` to answer inline on the calling thread (counter
/// snapshots, control-plane verbs, parse errors). Return `None` after
/// arranging for a [`Completer`] taken from the context to be completed
/// elsewhere — the reactor then counts the request as in-flight for
/// back-pressure until the completion arrives.
pub trait Frontend: Send + Sync {
    /// Handle one newline-framed request line (newline stripped).
    fn handle(&self, line: &str, ctx: &FrontendContext<'_>) -> Option<String>;

    /// Addresses of the servers [`FrontendContext::forward`] reaches,
    /// resolved once when the pool spawns. Each reactor keeps its own
    /// lazily dialed connection to each. None by default.
    fn upstreams(&self) -> Vec<String> {
        Vec::new()
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// What a [`ConnCore`] wants from its transport next.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Read more bytes.
    pub read: bool,
    /// Write [`ConnCore::unwritten`].
    pub write: bool,
    /// Reading has just stopped for back-pressure (not for a close).
    pub paused: bool,
}

/// One line stream with no file descriptor in it: the framing, buffers,
/// in-flight count and back-pressure every transport shares. A reactor
/// connection and the stdio session feed it what they read, dispatch
/// its lines and write out the replies it queues; an upstream
/// connection queues requests in it and frames replies through it. So
/// all frame and cap alike.
pub(crate) struct ConnCore {
    /// Line cap and back-pressure thresholds (`max_connections` unused).
    cfg: ReactorConfig,
    /// Bytes read; lines before `rpos` are taken, and `rbuf[rpos..scanned]`
    /// holds no newline.
    rbuf: Vec<u8>,
    rpos: usize,
    scanned: usize,
    /// The peer ended the stream or a line was refused: read no more.
    read_closed: bool,
    /// Reply lines; `wbuf[wpos..]` is not yet written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests submitted and not yet completed with their last line.
    inflight: usize,
    /// Whether the last [`ConnCore::interest`] asked to read.
    reading: bool,
}

impl ConnCore {
    pub(crate) fn new(cfg: &ReactorConfig) -> ConnCore {
        ConnCore {
            cfg: cfg.clone(),
            rbuf: Vec::new(),
            rpos: 0,
            scanned: 0,
            read_closed: false,
            wbuf: Vec::new(),
            wpos: 0,
            inflight: 0,
            reading: true,
        }
    }

    /// Take bytes read from the peer. An empty read is the end of the
    /// stream: an unterminated last line is then served as if it ended
    /// in a newline. Bytes after the read side closed are ignored.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        if self.read_closed {
            return;
        }
        if self.rpos > 0 {
            self.rbuf.drain(..self.rpos);
            self.scanned -= self.rpos;
            self.rpos = 0;
        }
        if bytes.is_empty() {
            self.read_closed = true;
            if !self.rbuf.is_empty() {
                self.rbuf.push(b'\n');
            }
        } else {
            self.rbuf.extend_from_slice(bytes);
        }
    }

    /// The next request line: newline stripped, blank lines skipped,
    /// bytes decoded lossily; `None` until more bytes arrive. `Err(reply)`
    /// means the next line is longer than `max_line_bytes`, however it
    /// was read: the framing cannot resynchronize, so reading closes and
    /// the transport answers `reply`.
    pub(crate) fn next_line(&mut self) -> Option<Result<Cow<'_, str>, String>> {
        loop {
            let start = self.rpos;
            let newline = self.rbuf[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|i| self.scanned + i);
            if newline.unwrap_or(self.rbuf.len()) - start > self.cfg.max_line_bytes {
                self.read_closed = true;
                (self.rpos, self.scanned) = (self.rbuf.len(), self.rbuf.len());
                let limit = self.cfg.max_line_bytes;
                let error =
                    ServeError::InvalidRequest(format!("request line exceeds {limit} bytes"));
                return Some(Err(protocol::render_result(&Err((None, error)))));
            }
            let Some(nl) = newline else {
                self.scanned = self.rbuf.len();
                return None;
            };
            (self.rpos, self.scanned) = (nl + 1, nl + 1);
            let line = String::from_utf8_lossy(&self.rbuf[start..nl]);
            if !line.trim().is_empty() {
                return Some(Ok(line));
            }
        }
    }

    /// Hand the next complete line to `frontend`. An inline reply, or the
    /// refusal of an over-long line, is queued; a request the frontend
    /// keeps is counted in flight. Returns whether it went in flight, or
    /// `None` when no complete line is buffered.
    pub(crate) fn dispatch_next(
        &mut self,
        frontend: &dyn Frontend,
        ctx: &FrontendContext<'_>,
    ) -> Option<bool> {
        let reply = match self.next_line()? {
            Ok(line) => frontend.handle(&line, ctx),
            Err(refusal) => Some(refusal),
        };
        match &reply {
            Some(reply) => self.queue(reply),
            None => self.submitted(),
        }
        Some(reply.is_none())
    }

    /// Queue one reply line (the newline is added here).
    pub(crate) fn queue(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    /// The queued reply bytes not yet written.
    pub(crate) fn unwritten(&self) -> &[u8] {
        &self.wbuf[self.wpos..]
    }

    /// The transport wrote the first `n` bytes of [`ConnCore::unwritten`].
    /// Returns how many reply lines that finished.
    pub(crate) fn wrote(&mut self, n: usize) -> usize {
        let lines = self.unwritten()[..n]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        self.wpos += n;
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > (64 << 10) {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        lines
    }

    /// A request went out to be answered later, through
    /// [`ConnCore::complete`].
    pub(crate) fn submitted(&mut self) {
        self.inflight += 1;
    }

    /// Queue one line of a submitted request's reply. Only its `last`
    /// line takes it out of flight, so a long streamed reply keeps
    /// counting against `max_inflight`.
    pub(crate) fn complete(&mut self, line: &str, last: bool) {
        self.queue(line);
        if last {
            self.inflight = self.inflight.saturating_sub(1);
        }
    }

    /// Requests submitted and not yet completed.
    pub(crate) fn in_flight(&self) -> usize {
        self.inflight
    }

    /// Which way to wait next. Reading stops at `max_inflight` requests
    /// in flight or `write_high_water` unwritten bytes, and resumes only
    /// below half of both, so a stream at a threshold does not flap.
    pub(crate) fn interest(&mut self) -> Interest {
        let pending = self.wbuf.len() - self.wpos;
        let (inflight, high_water) = if self.reading {
            (self.cfg.max_inflight, self.cfg.write_high_water)
        } else {
            (
                self.cfg.max_inflight.div_ceil(2),
                self.cfg.write_high_water / 2,
            )
        };
        let read = !self.read_closed && self.inflight < inflight && pending < high_water;
        let paused = self.reading && !read && !self.read_closed;
        self.reading = read;
        Interest {
            read,
            write: pending > 0,
            paused,
        }
    }

    /// Whether the stream is done: reading closed with every line taken,
    /// nothing in flight, nothing left to write.
    pub(crate) fn finished(&self) -> bool {
        self.read_closed
            && self.rpos == self.rbuf.len()
            && self.inflight == 0
            && self.wpos == self.wbuf.len()
    }
}

/// N epoll reactors serving one [`Frontend`] (typically an
/// [`AtlasService`]; the shard proxy is the other implementation) on one
/// listen address, each on its own thread with its own epoll instance,
/// listener, connection table, and wakeup. Dropping the pool stops
/// every reactor and closes every connection.
///
/// Listeners are bound with `SO_REUSEPORT` so the kernel load-balances
/// accepts across reactors; where the option is unavailable the pool
/// falls back to dup'd handles of one listener (a shared accept queue).
pub struct ReactorPool {
    addr: SocketAddr,
    /// False when the `SO_REUSEPORT` path was refused and the pool fell
    /// back to a shared accept queue.
    reuseport: bool,
    registry: Registry,
    /// Each started reactor's completion queue, for the shutdown signal.
    wakes: Vec<Arc<Completions>>,
    threads: Vec<thread::JoinHandle<io::Result<()>>>,
}

impl ReactorPool {
    /// Bind `threads` reactors (at least one) on `addr` and start each
    /// on its own thread. Port 0 resolves once and every reactor shares
    /// the concrete port.
    ///
    /// # Errors
    ///
    /// Socket, eventfd, epoll, or thread creation failures; reactors
    /// already started are shut down. A refused `SO_REUSEPORT` is not an
    /// error — the pool falls back to a shared accept queue.
    pub fn spawn(
        frontend: Arc<dyn Frontend>,
        addr: impl ToSocketAddrs,
        cfg: ReactorConfig,
        threads: usize,
    ) -> io::Result<ReactorPool> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other("address resolved to nothing"))?;
        let (listeners, reuseport) = bind_listeners(addr, threads.max(1))?;
        // An address that does not resolve leaves its upstream with none
        // to dial: its requests then fail with `unavailable`.
        let upstreams: Vec<(String, Vec<SocketAddr>)> = frontend
            .upstreams()
            .into_iter()
            .map(|name| {
                let addrs = name.to_socket_addrs().map(Iterator::collect);
                (name, addrs.unwrap_or_default())
            })
            .collect();
        let counters: Vec<Arc<Counters>> = listeners.iter().map(|_| Arc::default()).collect();
        let registry: Registry = counters.clone().into();
        let mut pool = ReactorPool {
            addr: listeners[0].local_addr()?,
            reuseport,
            registry: registry.clone(),
            wakes: Vec::with_capacity(listeners.len()),
            threads: Vec::with_capacity(listeners.len()),
        };
        // An early return drops `pool`, which stops the loops started so far.
        for (i, (listener, counters)) in listeners.into_iter().zip(counters).enumerate() {
            let completions = Arc::new(Completions::new()?);
            let event_loop = Loop::new(
                Arc::clone(&frontend),
                registry.clone(),
                listener,
                cfg.clone(),
                Arc::clone(&completions),
                counters,
                &upstreams,
            )?;
            let thread = thread::Builder::new()
                .name(format!("atlas-reactor-{i}"))
                .spawn(move || event_loop.run())?;
            pool.wakes.push(completions);
            pool.threads.push(thread);
        }
        Ok(pool)
    }

    /// The bound listen address (resolved, so port 0 becomes concrete).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the kernel accepted `SO_REUSEPORT` (false = shared
    /// accept-queue fallback).
    pub fn reuseport(&self) -> bool {
        self.reuseport
    }

    /// Per-reactor counter snapshots, in reactor order.
    pub fn reactor_stats(&self) -> Vec<ReactorStats> {
        snapshot(&self.registry)
    }

    /// Counters summed across reactors.
    pub fn stats(&self) -> ReactorStats {
        let mut total = ReactorStats::default();
        for s in snapshot(&self.registry) {
            total.accepted += s.accepted;
            total.rejected += s.rejected;
            total.closed += s.closed;
            total.active += s.active;
            total.requests += s.requests;
            total.responses += s.responses;
            total.pauses += s.pauses;
            total.upstream_failures += s.upstream_failures;
        }
        total
    }

    /// Stop every reactor, close every connection, and join the threads.
    ///
    /// # Errors
    ///
    /// The first I/O error that terminated a loop, if any did not exit
    /// cleanly.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.signal_shutdown();
        self.join_threads()
    }

    /// Block until every reactor thread exits (a fatal error or an
    /// external shutdown signal). Used by the `atlas-shard` binary,
    /// which parks `main` here.
    ///
    /// # Errors
    ///
    /// The first I/O error that terminated a loop.
    pub fn join(mut self) -> io::Result<()> {
        self.join_threads()
    }

    /// Signal every loop before joining any, so they wind down in
    /// parallel.
    fn signal_shutdown(&self) {
        for completions in &self.wakes {
            completions.shutdown.store(true, Ordering::SeqCst);
            sys::eventfd_signal(completions.wake.0);
        }
    }

    fn join_threads(&mut self) -> io::Result<()> {
        let mut result = Ok(());
        for thread in self.threads.drain(..) {
            let r = thread
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("reactor thread panicked")));
            if result.is_ok() {
                result = r;
            }
        }
        result
    }
}

impl Drop for ReactorPool {
    fn drop(&mut self) {
        self.signal_shutdown();
        let _ = self.join_threads();
    }
}

/// Bind `n` listeners on one address: `SO_REUSEPORT` when the kernel
/// allows it, otherwise dup'd handles of a single listener. Returns the
/// listeners plus whether the reuseport path was taken.
fn bind_listeners(addr: SocketAddr, n: usize) -> io::Result<(Vec<TcpListener>, bool)> {
    if let (true, SocketAddr::V4(v4)) = (n > 1, addr) {
        if let Ok(first) = sys::reuseport_listener(v4, 1024) {
            // Port 0: learn the concrete port before binding the rest.
            let SocketAddr::V4(bound) = first.local_addr()? else {
                unreachable!("IPv4 bind yields an IPv4 address")
            };
            let rest: io::Result<Vec<_>> = (1..n)
                .map(|_| sys::reuseport_listener(bound, 1024))
                .collect();
            // A partial failure drops what was bound and falls through to
            // the shared-queue fallback.
            if let Ok(rest) = rest {
                return Ok((std::iter::once(first).chain(rest).collect(), true));
            }
        }
    }
    let first = TcpListener::bind(addr)?;
    // The dups share the listener's open file, non-blocking flag included.
    first.set_nonblocking(true)?;
    let dups: Vec<_> = (1..n)
        .map(|_| first.try_clone())
        .collect::<io::Result<_>>()?;
    Ok((std::iter::once(first).chain(dups).collect(), false))
}

/// A client's connection, or the reactor's own to one upstream.
struct Conn {
    stream: TcpStream,
    core: ConnCore,
    /// The epoll mask registered for the socket, and the upstream's index
    /// on an upstream connection.
    registered: u32,
    upstream: Option<usize>,
}

/// One upstream of the frontend, as one reactor sees it.
#[derive(Default)]
struct Upstream {
    /// The address as the frontend spelled it, and what it resolved to
    /// (a failed dial moves the next address first).
    name: String,
    addrs: Vec<SocketAddr>,
    /// This reactor's connection to it, if any, and the requests sent on
    /// it by the id their replies carry.
    conn: Option<u64>,
    pending: HashMap<u64, Completer>,
    /// When its dial gives up, while in flight, and when a dial last
    /// failed (no new one before [`RECONNECT_COOLDOWN`]).
    dial_deadline: Option<Instant>,
    failed_at: Option<Instant>,
}

impl Upstream {
    fn unavailable(&self, why: &str) -> ServeError {
        ServeError::Unavailable(format!("upstream {} {why}", self.name))
    }
}

/// One reactor's event loop (private; started by [`ReactorPool::spawn`]).
struct Loop {
    frontend: Arc<dyn Frontend>,
    registry: Registry,
    listener: TcpListener,
    cfg: ReactorConfig,
    completions: Arc<Completions>,
    counters: Arc<Counters>,
    ep: sys::OwnedFd,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    upstreams: Vec<Upstream>,
    /// What the frontend forwarded while a connection dispatched.
    forwards: RefCell<Vec<Forward>>,
    /// Set after a non-transient `accept` failure (EMFILE/ENFILE fd
    /// exhaustion): the listener is disarmed and re-armed after a short
    /// timed wait, instead of level-triggered epoll busy-spinning on the
    /// still-pending backlog.
    accept_backoff: bool,
}

impl Loop {
    fn new(
        frontend: Arc<dyn Frontend>,
        registry: Registry,
        listener: TcpListener,
        cfg: ReactorConfig,
        completions: Arc<Completions>,
        counters: Arc<Counters>,
        upstreams: &[(String, Vec<SocketAddr>)],
    ) -> io::Result<Loop> {
        let ep = sys::epoll_create()?;
        sys::ctl(
            ep.0,
            sys::EPOLL_CTL_ADD,
            listener.as_raw_fd(),
            sys::EPOLLIN,
            TOKEN_LISTENER,
        )?;
        completions.watch(&ep)?;
        let upstreams = upstreams.iter().map(|(name, addrs)| Upstream {
            name: name.clone(),
            addrs: addrs.clone(),
            ..Upstream::default()
        });
        Ok(Loop {
            frontend,
            registry,
            listener,
            cfg,
            completions,
            counters,
            ep,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            upstreams: upstreams.collect(),
            forwards: RefCell::default(),
            accept_backoff: false,
        })
    }

    fn run(mut self) -> io::Result<()> {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        while self.turn(&mut events)? {}
        Ok(())
    }

    /// Wait for events once and handle them; false once shut down.
    fn turn(&mut self, events: &mut [sys::EpollEvent]) -> io::Result<bool> {
        // Wake within 50 ms to re-arm the listener after an accept
        // back-off, or to time a dial out.
        let dialing = self.upstreams.iter().any(|u| u.dial_deadline.is_some());
        let timeout_ms = if self.accept_backoff || dialing {
            50
        } else {
            -1
        };
        let n = sys::wait(self.ep.0, events, timeout_ms)?;
        if self.accept_backoff {
            // Re-arm the listener after the cool-down (fds may have
            // been freed by closed connections in the meantime).
            self.accept_backoff = false;
            let _ = sys::ctl(
                self.ep.0,
                sys::EPOLL_CTL_MOD,
                self.listener.as_raw_fd(),
                sys::EPOLLIN,
                TOKEN_LISTENER,
            );
            self.accept_ready();
        }
        let now = Instant::now();
        let timed_out = |u: &Upstream| u.conn.filter(|_| u.dial_deadline.is_some_and(|t| t <= now));
        let timed_out: Vec<u64> = self.upstreams.iter().filter_map(timed_out).collect();
        for token in timed_out {
            self.close_conn(token, "timed out connecting");
        }
        for ev in &events[..n] {
            // Copy out of the possibly-packed struct before use.
            let (token, bits) = (ev.data, ev.events);
            match token {
                TOKEN_LISTENER => self.accept_ready(),
                TOKEN_WAKE => {
                    // Queue the whole batch first, so each connection
                    // writes its share of it at once.
                    let batch = self.completions.drain();
                    for c in &batch {
                        if let Some(conn) = self.conns.get_mut(&c.token) {
                            conn.core.complete(&c.line, c.last);
                        }
                    }
                    for c in &batch {
                        self.settle(c.token);
                    }
                    if self.completions.shutdown.load(Ordering::SeqCst) {
                        // Close everything; undelivered replies are
                        // dropped with their connections.
                        let tokens: Vec<u64> = self.conns.keys().copied().collect();
                        for t in tokens {
                            self.close_conn(t, "is shutting down");
                        }
                        return Ok(false);
                    }
                }
                token => self.conn_ready(token, bits),
            }
        }
        Ok(true)
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let clients = self.counters.active.load(Ordering::Relaxed);
                    if clients as usize >= self.cfg.max_connections {
                        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                        refuse(stream);
                        continue;
                    }
                    let core = ConnCore::new(&self.cfg);
                    if self.insert(stream, core, None).is_ok() {
                        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                        self.counters.active.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(e.raw_os_error(),
                        Some(code) if code == sys::EMFILE || code == sys::ENFILE) =>
                {
                    // Fd exhaustion: the pending backlog would re-fire
                    // EPOLLIN immediately and spin the loop. Disarm the
                    // listener and retry after a timed wait instead.
                    self.accept_backoff = true;
                    let _ = sys::ctl(
                        self.ep.0,
                        sys::EPOLL_CTL_MOD,
                        self.listener.as_raw_fd(),
                        0,
                        TOKEN_LISTENER,
                    );
                    break;
                }
                // Transient per-connection accept errors (ECONNABORTED &
                // friends): keep serving.
                Err(_) => break,
            }
        }
    }

    /// Add a socket to the table, registered for reading ([`Loop::settle`]
    /// adds writability, which also reports the end of an upstream's dial).
    fn insert(
        &mut self,
        stream: TcpStream,
        core: ConnCore,
        upstream: Option<usize>,
    ) -> io::Result<u64> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        sys::ctl(
            self.ep.0,
            sys::EPOLL_CTL_ADD,
            stream.as_raw_fd(),
            sys::EPOLLIN,
            token,
        )?;
        let conn = Conn {
            stream,
            core,
            registered: sys::EPOLLIN,
            upstream,
        };
        self.conns.insert(token, conn);
        Ok(token)
    }

    /// One readiness event: one read fed to the core and every line it
    /// completes dispatched, then [`Loop::settle`], then what the
    /// frontend forwarded sent on. A frontend that keeps the request
    /// (`None`) will answer through a [`Completer`]; counting it in
    /// flight after `handle` returns is safe, because completions are
    /// drained only by this thread.
    fn conn_ready(&mut self, token: u64, bits: u32) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let Some(upstream) = conn.upstream {
            return self.upstream_ready(token, upstream, bits);
        }
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            return self.close_conn(token, "");
        }
        if bits & sys::EPOLLIN != 0 {
            let mut chunk = [0u8; 8192];
            match conn.stream.read(&mut chunk) {
                Ok(n) => conn.core.feed(&chunk[..n]),
                Err(e) if must_wait(&e) => {}
                Err(_) => return self.close_conn(token, ""),
            }
            let ctx = FrontendContext {
                token,
                completions: &self.completions,
                registry: &self.registry,
                forwards: Some(&self.forwards),
            };
            while let Some(submitted) = conn.core.dispatch_next(&*self.frontend, &ctx) {
                if submitted {
                    self.counters.requests.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.settle(token);
        for forward in self.forwards.take() {
            self.forward(forward);
        }
    }

    /// One readiness event on an upstream connection: its dial's outcome
    /// while that is in flight, else one read whose reply lines are
    /// [`relay`]ed to their clients. The end of the stream, a read error
    /// or an over-long line closes it; replies sent before a close are
    /// read first.
    fn upstream_ready(&mut self, token: u64, upstream: usize, bits: u32) {
        let conn = self.conns.get_mut(&token).expect("checked by conn_ready");
        let up = &mut self.upstreams[upstream];
        if up.dial_deadline.is_some() {
            if let Some(e) = conn.stream.take_error().unwrap_or_else(Some) {
                return self.close_conn(token, &format!("refused the connection: {e}"));
            }
            up.dial_deadline = None;
        } else if bits & (sys::EPOLLIN | sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            let mut chunk = [0u8; 8192];
            let n = match conn.stream.read(&mut chunk) {
                Ok(n) => n,
                Err(e) if must_wait(&e) => return,
                Err(_) => return self.close_conn(token, "disconnected mid-request"),
            };
            conn.core.feed(&chunk[..n]);
            let mut closed = (n == 0).then_some("disconnected mid-request");
            let mut answers = Vec::new();
            while let Some(line) = conn.core.next_line() {
                match line {
                    Ok(line) => answers.extend(relay(&mut up.pending, &line)),
                    Err(_) => closed = Some("sent an over-long reply line"),
                }
            }
            for (client, line, last) in &answers {
                if let Some(conn) = self.conns.get_mut(client) {
                    conn.core.complete(line, *last);
                }
            }
            for (client, ..) in answers {
                self.settle(client);
            }
            if let Some(why) = closed {
                return self.close_conn(token, why);
            }
        }
        self.settle(token);
    }

    /// Queue one forwarded request on its upstream's connection, dialing
    /// one if there is none, or fail it with `unavailable`: the upstream
    /// does not exist, is cooling down after a failed dial, cannot be
    /// dialed, or has stopped reading (more than
    /// [`ReactorConfig::write_high_water`] bytes wait for it).
    fn forward(&mut self, (upstream, id, completer, line): Forward) {
        let Some(up) = self.upstreams.get(upstream) else {
            let error = ServeError::Unavailable(format!("no upstream {upstream}"));
            return self.counters.fail_upstream(completer, error);
        };
        let token = match up.conn {
            Some(token) => Ok(token),
            None => self.dial(upstream),
        };
        let up = &mut self.upstreams[upstream];
        let token = match token {
            Ok(token) => token,
            Err(why) => return self.counters.fail_upstream(completer, up.unavailable(&why)),
        };
        let conn = self.conns.get_mut(&token).expect("in the table");
        if conn.core.unwritten().len() > self.cfg.write_high_water {
            let error = up.unavailable("is not reading its requests");
            return self.counters.fail_upstream(completer, error);
        }
        conn.core.queue(&line);
        up.pending.insert(id, completer);
        self.settle(token);
    }

    /// Start a non-blocking dial to `upstream`'s first address and add
    /// the connection to the table. At most one
    /// dial per [`RECONNECT_COOLDOWN`] after one failed: a dead upstream
    /// answers `unavailable` from memory, not from a dial per request.
    fn dial(&mut self, upstream: usize) -> Result<u64, String> {
        let up = &self.upstreams[upstream];
        if up
            .failed_at
            .is_some_and(|t| t.elapsed() < RECONNECT_COOLDOWN)
        {
            return Err("is in reconnect cooldown after a failed connect".to_owned());
        }
        let addr = up.addrs.first().copied().ok_or("resolved to no address")?;
        // Replies are always read, so proxy and upstream never wait on
        // each other's back-pressure.
        let core = ConnCore::new(&ReactorConfig {
            max_inflight: usize::MAX,
            write_high_water: usize::MAX,
            ..self.cfg.clone()
        });
        let dialed = sys::connect_nonblocking(addr)
            .and_then(|stream| self.insert(stream, core, Some(upstream)));
        let up = &mut self.upstreams[upstream];
        match dialed {
            Ok(token) => {
                up.conn = Some(token);
                up.dial_deadline = Some(Instant::now() + CONNECT_TIMEOUT);
                Ok(token)
            }
            Err(e) => {
                up.failed_at = Some(Instant::now());
                up.addrs.rotate_left(1);
                Err(format!("could not be dialed: {e}"))
            }
        }
    }

    /// Write once what the socket takes, then close the connection if the
    /// write failed or its stream is finished, else bring its epoll
    /// registration in line with what the core wants. (A write during an
    /// upstream's dial just has to wait: writability ends the dial.)
    fn settle(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut failed = false;
        if !conn.core.unwritten().is_empty() {
            match conn.stream.write(conn.core.unwritten()) {
                Ok(0) => failed = true,
                Ok(n) => {
                    let lines = conn.core.wrote(n) as u64;
                    if conn.upstream.is_none() {
                        self.counters.responses.fetch_add(lines, Ordering::Relaxed);
                    }
                }
                Err(e) if must_wait(&e) => {}
                Err(_) => failed = true,
            }
        }
        if failed || conn.core.finished() {
            return self.close_conn(token, "disconnected mid-request");
        }
        let want = conn.core.interest();
        if want.paused {
            self.counters.pauses.fetch_add(1, Ordering::Relaxed);
        }
        let mask =
            if want.read { sys::EPOLLIN } else { 0 } | if want.write { sys::EPOLLOUT } else { 0 };
        if mask != conn.registered {
            let fd = conn.stream.as_raw_fd();
            if sys::ctl(self.ep.0, sys::EPOLL_CTL_MOD, fd, mask, token).is_err() {
                return self.close_conn(token, "could not be watched");
            }
            conn.registered = mask;
        }
    }

    /// Drop a connection from the table, closing it. An upstream's fails
    /// each request pending on it with one `unavailable` saying `why`, and
    /// one still dialing starts the upstream's reconnect cooldown.
    fn close_conn(&mut self, token: u64, why: &str) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = sys::ctl_del(self.ep.0, conn.stream.as_raw_fd());
        // Dropping the TcpStream closes the socket.
        let Some(upstream) = conn.upstream else {
            self.counters.closed.fetch_add(1, Ordering::Relaxed);
            self.counters.active.fetch_sub(1, Ordering::Relaxed);
            return;
        };
        let up = &mut self.upstreams[upstream];
        up.conn = None;
        if up.dial_deadline.take().is_some() {
            up.failed_at = Some(Instant::now());
            up.addrs.rotate_left(1);
        }
        for (_, completer) in std::mem::take(&mut up.pending) {
            self.counters.fail_upstream(completer, up.unavailable(why));
        }
    }
}

/// The answer an upstream reply line carries for a pending request:
/// (client connection, line with the client's own id, whether it is the
/// request's last line). The client is on this reactor, so the line goes
/// straight to its connection, not through the completion queue.
fn relay(pending: &mut HashMap<u64, Completer>, line: &str) -> Option<(u64, String, bool)> {
    let (reply, id, last) = protocol::parse_relayed(line)?;
    let completer = pending.get_mut(&id)?;
    // Answered here: dropping it must not answer again.
    *completer.answered.get_mut() = last;
    let answer = (
        completer.token,
        protocol::with_id(reply, completer.id),
        last,
    );
    if last {
        pending.remove(&id);
    }
    Some(answer)
}

/// Whether a non-blocking socket call just has to wait for the next
/// readiness event.
fn must_wait(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
    )
}

/// Serve a blocking line stream (the `serve` binary's stdio mode)
/// through the same [`Frontend`] and the same line-stream core a
/// reactor connection uses, one request at a time and in order: an
/// inline reply is written at once, otherwise each streamed frame as it
/// arrives, through the final line. A line over
/// [`ReactorConfig::max_line_bytes`] answers `invalid_request` and ends
/// the session; an unterminated last line is served. `stats` reports
/// `reactor_threads: 0`.
///
/// # Errors
///
/// Stream I/O failures, and eventfd or epoll failures.
pub fn serve_lines(
    frontend: &dyn Frontend,
    mut input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    let completions = Arc::new(Completions::new()?);
    let ep = sys::epoll_create()?;
    completions.watch(&ep)?;
    let ctx = FrontendContext {
        token: FIRST_CONN_TOKEN,
        completions: &completions,
        registry: &[],
        forwards: None,
    };
    let mut core = ConnCore::new(&ReactorConfig::default());
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; 1];
    while !core.finished() {
        let chunk = match input.fill_buf() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            chunk => chunk?,
        };
        let n = chunk.len();
        core.feed(chunk);
        input.consume(n);
        while core.dispatch_next(frontend, &ctx).is_some() {
            loop {
                output.write_all(core.unwritten())?;
                core.wrote(core.unwritten().len());
                output.flush()?;
                if core.in_flight() == 0 {
                    break;
                }
                sys::wait(ep.0, &mut events, -1)?;
                for c in completions.drain() {
                    core.complete(&c.line, c.last);
                }
            }
        }
    }
    Ok(())
}

/// The service behind the front door: predictions to the worker pool
/// (replied through the [`Completer`]); `stats`, `models`,
/// `load_model`, `unload_model`, `register_workload`, `workloads`,
/// `load_design`, and `shard_map` answered inline (they are counter
/// snapshots or rare control-plane mutations and never need a worker —
/// `load_model` does read a model file and `load_design` does parse a
/// size-capped netlist on the reactor thread, an accepted cost for
/// operator-frequency verbs); parse errors answered inline.
impl Frontend for AtlasService {
    fn handle(&self, line: &str, ctx: &FrontendContext<'_>) -> Option<String> {
        match protocol::parse_line(line) {
            Ok(RequestLine::Predict(request)) => {
                let completer = ctx.completer(request.id);
                self.submit_with(request, move |reply| {
                    completer.complete(protocol::render_result(&reply));
                });
                None
            }
            Ok(RequestLine::PredictDelta(request)) => {
                let completer = ctx.completer(request.id);
                self.submit_delta_with(request, move |reply| {
                    completer.complete(protocol::render_delta_result(&reply));
                });
                None
            }
            Ok(RequestLine::Sweep(request)) => sweep(self, request, ctx),
            Ok(RequestLine::Stats { id }) => {
                let stats = protocol::StatsResponse {
                    id,
                    reactor_threads: ctx.reactor_threads(),
                    reactors: ctx.reactor_stats(),
                    ..self.stats()
                };
                Some(protocol::render_line(&stats))
            }
            Ok(RequestLine::Models { id }) => Some(protocol::render_line(
                &protocol::models_response(id, self.default_model(), self.models()),
            )),
            Ok(RequestLine::ShardMap { id }) => {
                // A plain serve process is not a router: it reports its
                // own shard id and an empty ring. The proxy frontend in
                // `shard` answers with the full ring.
                Some(protocol::render_line(&protocol::ShardMapResponse {
                    id,
                    verb: "shard_map".to_owned(),
                    shard_id: self.shard_id(),
                    shards: Vec::new(),
                }))
            }
            Ok(RequestLine::LoadModel(req)) => inline(
                req.id,
                self.load_model_file(&req.name, &req.path).map(|model| {
                    protocol::LoadModelResponse {
                        id: req.id,
                        verb: "load_model".to_owned(),
                        model,
                        default_model: self.default_model().to_owned(),
                    }
                }),
            ),
            Ok(RequestLine::UnloadModel(req)) => inline(
                req.id,
                self.unload_model(&req.name)
                    .map(|()| protocol::UnloadModelResponse {
                        id: req.id,
                        verb: "unload_model".to_owned(),
                        name: req.name,
                    }),
            ),
            Ok(RequestLine::Workloads { id }) => Some(protocol::render_line(
                &protocol::workloads_response(id, self.workloads()),
            )),
            Ok(RequestLine::RegisterWorkload(req)) => inline(
                req.id,
                self.register_workload(&req.name, req.phases)
                    .map(|(workload, replaced)| protocol::RegisterWorkloadResponse {
                        id: req.id,
                        verb: "register_workload".to_owned(),
                        workload,
                        replaced,
                    }),
            ),
            Ok(RequestLine::LoadDesign(req)) => inline(
                req.id,
                self.load_design(&req.name, &req.verilog).map(|design| {
                    protocol::LoadDesignResponse {
                        id: req.id,
                        verb: "load_design".to_owned(),
                        design,
                    }
                }),
            ),
            Err(e) => Some(protocol::render_result(&Err((
                protocol::salvage_id(line),
                e,
            )))),
        }
    }
}

/// Render an inline verb's reply: its response line, or its typed error
/// echoing `id`.
fn inline<T: serde::Serialize>(id: Option<u64>, result: Result<T, ServeError>) -> Option<String> {
    Some(protocol::render_reply(&result.map_err(|e| (id, e))))
}

/// Run one `sweep` request: fan its items out to the worker pool and
/// stream the reply back as frames — `start` synchronously, one `item`
/// (+ bounded `series` chunks) or `error` frame per schedule as each
/// finishes, and a final `end` frame once every item reported. Items of
/// one sweep share the design-side work through the per-design cache
/// (the first item to miss builds it; single-flight coalesces ties), and
/// no frame ever carries more than [`protocol::MAX_SERIES_CHUNK`]
/// per-cycle values, so a 10k-cycle sweep never materializes one giant
/// response line in the reactor.
fn sweep(
    service: &AtlasService,
    request: protocol::SweepRequest,
    ctx: &FrontendContext<'_>,
) -> Option<String> {
    use std::sync::atomic::AtomicUsize;

    let invalid = |msg: String| {
        Some(protocol::render_result(&Err((
            request.id,
            ServeError::InvalidRequest(msg),
        ))))
    };
    let items = request.items.len();
    if items == 0 {
        return invalid("a sweep needs at least one item".to_owned());
    }
    if items > protocol::MAX_SWEEP_ITEMS {
        return invalid(format!(
            "sweep has {items} items, limit is {}",
            protocol::MAX_SWEEP_ITEMS
        ));
    }
    let chunk = request
        .chunk_cycles
        .unwrap_or(protocol::DEFAULT_SERIES_CHUNK)
        .clamp(1, protocol::MAX_SERIES_CHUNK);
    let completer = Arc::new(ctx.completer(request.id));
    completer.stream(protocol::render_line(&protocol::SweepStartFrame {
        id: request.id,
        verb: "sweep".to_owned(),
        frame: "start".to_owned(),
        items,
    }));
    let remaining = Arc::new(AtomicUsize::new(items));
    let errors = Arc::new(AtomicUsize::new(0));
    let started = std::time::Instant::now();
    for (item, spec) in request.items.into_iter().enumerate() {
        let predict = protocol::PredictRequest {
            id: request.id,
            model: request.model.clone(),
            design: request.design.clone(),
            workload: spec.workload,
            workload_name: spec.workload_name,
            cycles: request.cycles,
            phases: spec.phases,
        };
        let id = request.id;
        let completer = Arc::clone(&completer);
        let remaining = Arc::clone(&remaining);
        let errors = Arc::clone(&errors);
        service.submit_with(predict, move |reply| {
            match reply {
                Ok(response) => {
                    completer.stream(protocol::render_line(&protocol::SweepItemFrame {
                        id,
                        verb: "sweep".to_owned(),
                        frame: "item".to_owned(),
                        item,
                        workload: response.workload,
                        cache_hit: response.cache_hit,
                        design_cache_hit: response.design_cache_hit,
                        mean_total_w: response.mean_total_w,
                        peak_total_w: response.peak_total_w,
                        groups: response.groups,
                    }));
                    let total_cycles = response.per_cycle_total_w.len();
                    for (k, values) in response.per_cycle_total_w.chunks(chunk).enumerate() {
                        completer.stream(protocol::render_line(&protocol::SweepSeriesFrame {
                            id,
                            verb: "sweep".to_owned(),
                            frame: "series".to_owned(),
                            item,
                            offset: k * chunk,
                            total_cycles,
                            per_cycle_total_w: values.to_vec(),
                        }));
                    }
                }
                Err((_, e)) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                    completer.stream(protocol::render_line(&protocol::SweepErrorFrame {
                        id,
                        verb: "sweep".to_owned(),
                        frame: "error".to_owned(),
                        item,
                        error: e.to_string(),
                        kind: e.kind().to_owned(),
                    }));
                }
            }
            // The last item to finish — in any order — seals the sweep.
            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                completer.complete(protocol::render_line(&protocol::SweepEndFrame {
                    id,
                    verb: "sweep".to_owned(),
                    frame: "end".to_owned(),
                    items,
                    errors: errors.load(Ordering::Acquire),
                    latency_ms: started.elapsed().as_secs_f64() * 1e3,
                }));
            }
        });
    }
    None
}

/// Best-effort one-line refusal for connections over the limit. The
/// socket is fresh, so the handful of bytes lands in the send buffer
/// without blocking.
fn refuse(mut stream: TcpStream) {
    let line = serde_json::to_string(&ErrorResponse {
        id: None,
        error: "connection limit reached".to_owned(),
        kind: "overloaded".to_owned(),
    })
    .unwrap_or_default();
    let _ = stream.set_nonblocking(true);
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader};

    use atlas_core::pipeline::{train_atlas, ExperimentConfig};

    use serde::Value;

    use super::*;
    use crate::protocol::{
        ModelsResponse, PredictDeltaResponse, PredictResponse, RegisterWorkloadResponse,
        StatsResponse, SweepItemFrame, SweepSeriesFrame, WorkloadsResponse,
    };
    use crate::ServiceConfig;

    /// Pull a string field out of a parsed frame (empty when absent).
    fn field_str<'a>(value: &'a Value, name: &str) -> &'a str {
        value
            .as_map()
            .and_then(|map| map.iter().find(|(k, _)| k == name))
            .and_then(|(_, v)| match v {
                Value::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .unwrap_or("")
    }

    /// Pull a numeric field out of a parsed frame (u64::MAX when absent).
    fn field_u64(value: &Value, name: &str) -> u64 {
        value
            .as_map()
            .and_then(|map| map.iter().find(|(k, _)| k == name))
            .and_then(|(_, v)| match v {
                Value::UInt(n) => Some(*n),
                Value::Int(n) if *n >= 0 => Some(*n as u64),
                _ => None,
            })
            .unwrap_or(u64::MAX)
    }

    /// A configuration small enough to train inside a unit test.
    fn micro_trained() -> (atlas_core::AtlasModel, ExperimentConfig) {
        let mut cfg = ExperimentConfig::quick();
        cfg.cycles = 12;
        cfg.scale = 0.12;
        cfg.pretrain.steps = 10;
        cfg.pretrain.hidden_dim = 12;
        cfg.finetune.cycles_per_design = 4;
        cfg.finetune.gbdt.n_estimators = 12;
        let trained = train_atlas(&cfg);
        (trained.model, cfg)
    }

    fn micro_service(workers: usize) -> Arc<AtlasService> {
        let (model, cfg) = micro_trained();
        Arc::new(AtlasService::start_with(
            model,
            cfg,
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
        ))
    }

    fn spawn_reactor(service: Arc<AtlasService>, cfg: ReactorConfig) -> ReactorPool {
        ReactorPool::spawn(service, "127.0.0.1:0", cfg, 1).expect("spawns")
    }

    fn send_line(stream: &mut TcpStream, line: &str) {
        let framed = format!("{line}\n");
        stream.write_all(framed.as_bytes()).expect("writes");
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reads a line");
        line
    }

    #[test]
    fn serves_predictions_stats_and_errors_over_one_connection() {
        let handle = spawn_reactor(micro_service(2), ReactorConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));

        send_line(
            &mut stream,
            r#"{"id":1,"design":"C2","workload":"W1","cycles":6}"#,
        );
        let resp: PredictResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("prediction parses");
        assert_eq!(resp.id, Some(1));
        assert_eq!(resp.cycles, 6);
        assert!(resp.mean_total_w > 0.0);

        // Same key again: served from cache.
        send_line(
            &mut stream,
            r#"{"id":2,"design":"C2","workload":"W1","cycles":6}"#,
        );
        let warm: PredictResponse = serde_json::from_str(&read_line(&mut reader)).expect("parses");
        assert!(warm.cache_hit);
        assert_eq!(warm.per_cycle_total_w, resp.per_cycle_total_w);

        // Stats verb is answered inline with byte-budget fields.
        send_line(&mut stream, r#"{"id":3,"verb":"stats"}"#);
        let stats: StatsResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("stats parses");
        assert_eq!(stats.id, Some(3));
        assert_eq!(stats.requests, 2);
        assert!(stats.embedding_cache.weight > 0);
        assert!(stats.embedding_cache.budget >= stats.embedding_cache.weight);

        // Bad JSON and unknown designs are typed per-line errors, not
        // connection teardowns.
        send_line(&mut stream, "not json");
        let err = read_line(&mut reader);
        assert!(err.contains("invalid_request"), "got: {err}");
        send_line(
            &mut stream,
            r#"{"id":4,"design":"C9","workload":"W1","cycles":6}"#,
        );
        let err = read_line(&mut reader);
        assert!(err.contains("unknown_design"), "got: {err}");

        // The catalog verbs are answered inline.
        send_line(&mut stream, r#"{"id":5,"verb":"models"}"#);
        let models: ModelsResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("models parses");
        assert_eq!(models.id, Some(5));
        assert_eq!(models.default_model, "default");
        assert_eq!(models.models.len(), 1);

        // Register a workload, list it, then use it by name — the second
        // use is a cache hit.
        send_line(
            &mut stream,
            r#"{"id":6,"verb":"register_workload","name":"spiky",
                "phases":[{"activity":0.6,"min_len":1,"max_len":3}]}"#
                .replace('\n', " ")
                .trim(),
        );
        let reg: RegisterWorkloadResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("registration parses");
        assert_eq!(reg.id, Some(6));
        assert_eq!(reg.workload.name, "spiky");
        assert!(!reg.replaced);
        send_line(&mut stream, r#"{"id":7,"verb":"workloads"}"#);
        let listed: WorkloadsResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("workloads parses");
        assert_eq!(listed.workloads.len(), 1);
        assert_eq!(listed.presets, vec!["W1".to_owned(), "W2".to_owned()]);
        send_line(
            &mut stream,
            r#"{"id":8,"design":"C2","workload_name":"spiky","cycles":6}"#,
        );
        let cold: PredictResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("registered predict parses");
        assert_eq!(cold.workload, "spiky");
        assert!(!cold.cache_hit);
        send_line(
            &mut stream,
            r#"{"id":9,"design":"C2","workload_name":"spiky","cycles":6}"#,
        );
        let warm: PredictResponse = serde_json::from_str(&read_line(&mut reader)).expect("parses");
        assert!(
            warm.cache_hit,
            "registered workload reuse must hit the cache"
        );

        // An unknown registered name is a structured unknown_workload
        // error that preserves the request id — not a generic parse error.
        send_line(
            &mut stream,
            r#"{"id":10,"design":"C2","workload_name":"nope","cycles":6}"#,
        );
        let err = read_line(&mut reader);
        assert!(err.contains("\"kind\":\"unknown_workload\""), "got: {err}");
        assert!(
            err.contains("\"id\":10"),
            "id must be preserved, got: {err}"
        );
        assert!(err.contains("nope"), "got: {err}");

        drop(stream);
        drop(reader);
        let stats = handle.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.requests, 6);
        handle.shutdown().expect("clean shutdown");
    }

    /// The `predict_delta` and `sweep` verbs over the wire: a delta
    /// against a warm base, a sweep streamed as chunked frames (start /
    /// item / series / error / end), and malformed edit specs answered
    /// with typed errors that preserve the request id.
    #[test]
    fn predict_delta_and_sweep_stream_over_the_wire() {
        let handle = spawn_reactor(micro_service(2), ReactorConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));

        // Warm the base trace, then delta against it.
        send_line(
            &mut stream,
            r#"{"id":1,"design":"C2","workload":"W1","cycles":6}"#,
        );
        let base: PredictResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("base parses");
        assert!(!base.cache_hit);
        send_line(
            &mut stream,
            r#"{"id":2,"verb":"predict_delta","design":"C2","workload":"W1","cycles":9,"base":{"cycles":6}}"#,
        );
        let delta: PredictDeltaResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("delta parses");
        assert_eq!(delta.id, Some(2));
        assert_eq!(delta.verb, "predict_delta");
        assert!(delta.base_hit, "the 6-cycle base must be found warm");
        assert!(delta.reused_cycles > 0);
        assert_eq!(delta.per_cycle_total_w.len(), 9);

        // A sweep whose chunk is smaller than the trace: the series must
        // arrive split across frames. Item 1 names an unknown registered
        // workload, so it answers as an `error` frame without sinking the
        // other item or the stream.
        send_line(
            &mut stream,
            r#"{"id":3,"verb":"sweep","design":"C2","cycles":6,"chunk_cycles":4,"items":[{"workload":"W1"},{"workload_name":"nope"}]}"#,
        );
        let mut frames: Vec<Value> = Vec::new();
        loop {
            let line = read_line(&mut reader);
            let value: Value = serde_json::from_str(&line).expect("frame parses");
            let done = field_str(&value, "frame") == "end";
            frames.push(value);
            if done {
                break;
            }
        }
        for frame in &frames {
            assert_eq!(field_u64(frame, "id"), 3, "every frame echoes the id");
            assert_eq!(field_str(frame, "verb"), "sweep");
        }
        assert_eq!(field_str(&frames[0], "frame"), "start");
        assert_eq!(field_u64(&frames[0], "items"), 2);
        let item: SweepItemFrame = {
            let value = frames
                .iter()
                .find(|f| field_str(f, "frame") == "item")
                .expect("one item frame");
            serde_json::from_str(&serde_json::to_string(value).expect("renders"))
                .expect("item frame parses")
        };
        assert_eq!(item.item, 0);
        assert_eq!(item.workload, "W1");
        assert!(item.cache_hit, "the W1/6 trace was warmed above");
        let series: Vec<SweepSeriesFrame> = frames
            .iter()
            .filter(|f| field_str(f, "frame") == "series")
            .map(|value| {
                serde_json::from_str(&serde_json::to_string(value).expect("renders"))
                    .expect("series frame parses")
            })
            .collect();
        assert_eq!(series.len(), 2, "6 cycles at chunk 4 is two frames");
        assert_eq!(
            (series[0].offset, series[0].per_cycle_total_w.len()),
            (0, 4)
        );
        assert_eq!(
            (series[1].offset, series[1].per_cycle_total_w.len()),
            (4, 2)
        );
        assert!(series.iter().all(|s| s.item == 0 && s.total_cycles == 6));
        let errors: Vec<&Value> = frames
            .iter()
            .filter(|f| field_str(f, "frame") == "error")
            .collect();
        assert_eq!(errors.len(), 1);
        assert_eq!(field_u64(errors[0], "item"), 1);
        assert_eq!(field_str(errors[0], "kind"), "unknown_workload");
        let end = frames.last().expect("end frame");
        assert_eq!(field_u64(end, "items"), 2);
        assert_eq!(field_u64(end, "errors"), 1);

        // Malformed edit specs: a self-contradictory base and a
        // wrong-typed hint both answer typed errors carrying the id.
        send_line(
            &mut stream,
            r#"{"id":4,"verb":"predict_delta","design":"C2","workload":"W1","cycles":6,"base":{"workload_name":"x","phases":[{"activity":0.5,"min_len":1,"max_len":2}]}}"#,
        );
        let err = read_line(&mut reader);
        assert!(err.contains("\"kind\":\"invalid_request\""), "got: {err}");
        assert!(err.contains("\"id\":4"), "id must be preserved, got: {err}");
        send_line(
            &mut stream,
            r#"{"id":5,"verb":"predict_delta","design":"C2","workload":"W1","cycles":6,"changed_submodules":"all"}"#,
        );
        let err = read_line(&mut reader);
        assert!(err.contains("\"kind\":\"invalid_request\""), "got: {err}");
        assert!(err.contains("\"id\":5"), "id must be preserved, got: {err}");
        // And an empty sweep is refused up front, before any frame.
        send_line(
            &mut stream,
            r#"{"id":6,"verb":"sweep","design":"C2","cycles":6,"items":[]}"#,
        );
        let err = read_line(&mut reader);
        assert!(err.contains("\"kind\":\"invalid_request\""), "got: {err}");
        assert!(err.contains("\"id\":6"), "id must be preserved, got: {err}");

        drop(stream);
        drop(reader);
        handle.shutdown().expect("clean shutdown");
    }

    /// The control-plane verbs over the wire: hot load (including a
    /// wrong-format-version rejection that preserves the request id,
    /// mirroring the `unknown_workload` tests), routed prediction on the
    /// loaded model, and structured unload errors for unknown and
    /// default models.
    #[test]
    fn load_and_unload_model_verbs_over_the_wire() {
        let (model, cfg) = micro_trained();
        let service = Arc::new(AtlasService::start_with(
            model.clone(),
            cfg.clone(),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        ));
        // A valid model file and a wrong-format-version tampering of it.
        let dir = std::env::temp_dir().join(format!("atlas-wire-reload-{}", std::process::id()));
        let registry = crate::registry::ModelRegistry::open(&dir).expect("registry opens");
        let good = registry.save("hot", &model, &cfg).expect("saves");
        let json = std::fs::read_to_string(&good).expect("readable");
        let bad = dir.join("future.atlas.json");
        let marker = format!("\"format_version\":{}", crate::registry::FORMAT_VERSION);
        let tampered = json.replace(
            &marker,
            &format!("\"format_version\":{}", crate::registry::FORMAT_VERSION + 1),
        );
        assert_ne!(json, tampered, "version marker must exist in the file");
        std::fs::write(&bad, tampered).expect("writable");

        let handle = spawn_reactor(service, ReactorConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));

        // Wrong version: a structured `registry` error with the id echoed
        // — never a connection teardown.
        send_line(
            &mut stream,
            &format!(
                r#"{{"id":21,"verb":"load_model","name":"hot","path":"{}"}}"#,
                bad.display()
            ),
        );
        let err = read_line(&mut reader);
        assert!(err.contains("\"kind\":\"registry\""), "got: {err}");
        assert!(
            err.contains("\"id\":21"),
            "id must be preserved, got: {err}"
        );
        assert!(err.contains("format version"), "got: {err}");

        // A valid load is acknowledged and immediately routable.
        send_line(
            &mut stream,
            &format!(
                r#"{{"id":22,"verb":"load_model","name":"hot","path":"{}"}}"#,
                good.display()
            ),
        );
        let loaded: crate::protocol::LoadModelResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("load_model parses");
        assert_eq!(loaded.id, Some(22));
        assert_eq!(loaded.model.name, "hot");
        assert_eq!(loaded.default_model, "default");
        send_line(&mut stream, r#"{"id":23,"verb":"models"}"#);
        let models: ModelsResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("models parses");
        assert_eq!(models.models.len(), 2);
        send_line(
            &mut stream,
            r#"{"id":24,"design":"C2","workload":"W1","cycles":6,"model":"hot"}"#,
        );
        let resp: PredictResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("routed predict parses");
        assert_eq!(resp.model, "hot");
        assert!(resp.mean_total_w > 0.0);

        // Unload errors are structured and id-preserving.
        send_line(
            &mut stream,
            r#"{"id":25,"verb":"unload_model","name":"nope"}"#,
        );
        let err = read_line(&mut reader);
        assert!(err.contains("\"kind\":\"unknown_model\""), "got: {err}");
        assert!(err.contains("\"id\":25"), "got: {err}");
        send_line(
            &mut stream,
            r#"{"id":26,"verb":"unload_model","name":"default"}"#,
        );
        let err = read_line(&mut reader);
        assert!(err.contains("\"kind\":\"invalid_request\""), "got: {err}");
        assert!(err.contains("\"id\":26"), "got: {err}");

        // A real unload is acknowledged; the name stops routing.
        send_line(
            &mut stream,
            r#"{"id":27,"verb":"unload_model","name":"hot"}"#,
        );
        let unloaded: crate::protocol::UnloadModelResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("unload_model parses");
        assert_eq!(unloaded.id, Some(27));
        assert_eq!(unloaded.name, "hot");
        send_line(
            &mut stream,
            r#"{"id":28,"design":"C2","workload":"W1","cycles":6,"model":"hot"}"#,
        );
        let err = read_line(&mut reader);
        assert!(err.contains("\"kind\":\"unknown_model\""), "got: {err}");
        assert!(err.contains("\"id\":28"), "got: {err}");

        handle.shutdown().expect("clean shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `load_design` verb over the wire: malformed bodies are
    /// structured `parse_error` replies (id preserved), oversize bodies
    /// are refused before parsing, duplicates are rejected, and a design
    /// uploaded over TCP predicts bit-identically to the same design
    /// loaded in-process.
    #[test]
    fn load_design_verb_over_the_wire() {
        use atlas_liberty::{CellClass, Drive};
        use atlas_netlist::NetlistBuilder;

        let (model, cfg) = micro_trained();
        let service = Arc::new(AtlasService::start_with(
            model,
            cfg,
            ServiceConfig {
                workers: 2,
                max_design_bytes: 4096,
                ..ServiceConfig::default()
            },
        ));
        let mut b = NetlistBuilder::new("wired");
        let sm = b.add_submodule("top.u0", "top");
        let a = b.add_input();
        let c = b.add_input();
        let x = b
            .add_cell(CellClass::Nor2, Drive::X1, &[a, c], sm)
            .expect("ok");
        let q = b.add_dff(x, sm).expect("ok");
        b.mark_output(q);
        let design = b.finish().expect("valid");
        let verilog = design.to_verilog();
        let body = serde_json::to_string(&verilog).expect("escapes");

        let handle = spawn_reactor(Arc::clone(&service), ReactorConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));

        // A body that fails to parse is a structured parse_error with the
        // request id echoed — never a connection teardown.
        send_line(
            &mut stream,
            r#"{"id":40,"verb":"load_design","name":"junk","verilog":"not a netlist"}"#,
        );
        let err = read_line(&mut reader);
        assert!(err.contains("\"kind\":\"parse_error\""), "got: {err}");
        assert!(err.contains("\"id\":40"), "got: {err}");

        // An oversize body is refused before parsing (the cap here is
        // below the reactor's line limit, so the refusal is the
        // service's, with the id preserved).
        let oversize =
            serde_json::to_string(&format!("{verilog}{}", "/".repeat(4096))).expect("escapes");
        send_line(
            &mut stream,
            &format!(r#"{{"id":41,"verb":"load_design","name":"big","verilog":{oversize}}}"#),
        );
        let err = read_line(&mut reader);
        assert!(err.contains("\"kind\":\"invalid_request\""), "got: {err}");
        assert!(err.contains("\"id\":41"), "got: {err}");
        assert!(err.contains("bytes"), "got: {err}");

        // A valid upload is acknowledged with the stored identity.
        send_line(
            &mut stream,
            &format!(r#"{{"id":42,"verb":"load_design","name":"wired","verilog":{body}}}"#),
        );
        let loaded: crate::protocol::LoadDesignResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("load_design parses");
        assert_eq!(loaded.id, Some(42));
        assert_eq!(loaded.design.name, "wired");
        assert_eq!(loaded.design.cells, design.cell_count());
        assert_eq!(loaded.design.nets, design.net_count());

        // Duplicate names are rejected, never replaced.
        send_line(
            &mut stream,
            &format!(r#"{{"id":43,"verb":"load_design","name":"wired","verilog":{body}}}"#),
        );
        let err = read_line(&mut reader);
        assert!(err.contains("\"kind\":\"invalid_request\""), "got: {err}");
        assert!(err.contains("\"id\":43"), "got: {err}");
        assert!(err.contains("already loaded"), "got: {err}");

        // The uploaded design predicts over the wire...
        send_line(
            &mut stream,
            r#"{"id":44,"design":"wired","workload":"W1","cycles":6}"#,
        );
        let uploaded: PredictResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("uploaded predict parses");
        assert_eq!(uploaded.id, Some(44));
        assert_eq!(uploaded.design, "wired");
        assert!(uploaded.mean_total_w > 0.0);

        // ... bit-identically to the same design loaded in-process.
        let local = service
            .load_design_parsed("local", design)
            .expect("in-process load");
        assert_eq!(local.fingerprint, loaded.design.fingerprint);
        send_line(
            &mut stream,
            r#"{"id":45,"design":"local","workload":"W1","cycles":6}"#,
        );
        let inproc: PredictResponse =
            serde_json::from_str(&read_line(&mut reader)).expect("in-process predict parses");
        assert_eq!(inproc.per_cycle_total_w, uploaded.per_cycle_total_w);
        assert_eq!(inproc.mean_total_w, uploaded.mean_total_w);

        handle.shutdown().expect("clean shutdown");
    }

    #[test]
    fn idle_connections_stay_parked_and_responsive() {
        // (The strict OS-thread-count assertion lives in the dedicated
        // tests/reactor_scale.rs process, where no parallel unit tests
        // can perturb /proc/self/status.)
        let handle = spawn_reactor(micro_service(2), ReactorConfig::default());
        let idle: Vec<TcpStream> = (0..96)
            .map(|_| TcpStream::connect(handle.addr()).expect("connects"))
            .collect();
        // Wait for the reactor to register them all.
        wait_until(|| handle.stats().active >= 96);

        // A request on the last connection still gets answered.
        let mut last = idle.into_iter().next_back().expect("nonempty");
        let mut reader = BufReader::new(last.try_clone().expect("clones"));
        send_line(
            &mut last,
            r#"{"id":9,"design":"C2","workload":"W2","cycles":5}"#,
        );
        let resp: PredictResponse = serde_json::from_str(&read_line(&mut reader)).expect("parses");
        assert_eq!(resp.id, Some(9));
        handle.shutdown().expect("clean shutdown");
    }

    #[test]
    fn connection_limit_refuses_with_overloaded_error() {
        let handle = spawn_reactor(
            micro_service(1),
            ReactorConfig {
                max_connections: 2,
                ..ReactorConfig::default()
            },
        );
        let _a = TcpStream::connect(handle.addr()).expect("connects");
        let _b = TcpStream::connect(handle.addr()).expect("connects");
        wait_until(|| handle.stats().active == 2);

        let over = TcpStream::connect(handle.addr()).expect("TCP accept still succeeds");
        let mut reader = BufReader::new(over);
        let line = read_line(&mut reader);
        assert!(line.contains("overloaded"), "got: {line}");
        // The refused socket is closed: next read returns EOF.
        let mut rest = String::new();
        reader.read_line(&mut rest).expect("EOF read");
        assert!(rest.is_empty());
        wait_until(|| handle.stats().rejected == 1);
        handle.shutdown().expect("clean shutdown");
    }

    #[test]
    fn backpressure_pauses_flooding_clients_and_recovers() {
        // One worker: completion order matches submission order, so the
        // in-order assertion below is deterministic.
        let handle = spawn_reactor(
            micro_service(1),
            ReactorConfig {
                max_inflight: 4,
                ..ReactorConfig::default()
            },
        );
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));

        // Flood 64 requests without reading a single response.
        let n = 64;
        for i in 0..n {
            send_line(
                &mut stream,
                &format!(r#"{{"id":{i},"design":"C2","workload":"W1","cycles":5}}"#),
            );
        }
        // Every request is eventually answered, in order, and the
        // reactor paused the connection at least once along the way.
        for i in 0..n {
            let resp: PredictResponse =
                serde_json::from_str(&read_line(&mut reader)).expect("parses");
            assert_eq!(resp.id, Some(i));
        }
        let stats = handle.stats();
        assert_eq!(stats.requests, n);
        assert!(
            stats.pauses > 0,
            "flooding past max_inflight must trip back-pressure"
        );
        handle.shutdown().expect("clean shutdown");
    }

    /// A frontend that drops the completer of every `"verb":"drop"`
    /// request unanswered and answers every other request from another
    /// thread.
    struct DropStub;

    impl Frontend for DropStub {
        fn handle(&self, line: &str, ctx: &FrontendContext<'_>) -> Option<String> {
            let id = protocol::salvage_id(line);
            let completer = ctx.completer(id);
            if !line.contains(r#""verb":"drop""#) {
                thread::spawn(move || {
                    completer.complete(format!(r#"{{"id":{},"ok":true}}"#, id.unwrap_or(0)));
                });
            }
            None
        }
    }

    /// Assert `lines` are exactly one `shutdown` error for id 1 followed
    /// by the answer to id 2.
    fn assert_shutdown_then_served(lines: &[String]) {
        assert_eq!(lines.len(), 2, "got: {lines:?}");
        let dropped: Value = serde_json::from_str(&lines[0]).expect("parses");
        assert_eq!(field_str(&dropped, "kind"), "shutdown", "got: {}", lines[0]);
        assert_eq!(field_u64(&dropped, "id"), 1);
        let served: Value = serde_json::from_str(&lines[1]).expect("parses");
        assert_eq!(field_u64(&served, "id"), 2, "got: {}", lines[1]);
    }

    #[test]
    fn dropped_completer_answers_shutdown_once() {
        let requests = "{\"id\":1,\"verb\":\"drop\"}\n{\"id\":2,\"verb\":\"echo\"}\n";

        let handle = ReactorPool::spawn(
            Arc::new(DropStub),
            "127.0.0.1:0",
            ReactorConfig::default(),
            1,
        )
        .expect("spawns");
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        stream.write_all(requests.as_bytes()).expect("writes");
        let tcp = vec![read_line(&mut reader), read_line(&mut reader)];
        assert_shutdown_then_served(&tcp);
        // Both requests left the in-flight count: the connection closes
        // cleanly once the client does.
        drop(stream);
        drop(reader);
        wait_until(|| handle.stats().closed == 1);
        handle.shutdown().expect("clean shutdown");

        let mut out = Vec::new();
        serve_lines(&DropStub, requests.as_bytes(), &mut out).expect("stdio session");
        let stdio: Vec<String> = out.lines().map(|l| l.expect("utf-8")).collect();
        assert_shutdown_then_served(&stdio);
    }

    /// A TCP request line cut short by the client's FIN is served, like
    /// stdio's unterminated last line: exactly one reply, then EOF.
    #[test]
    fn unterminated_last_line_is_served_before_eof() {
        let handle = ReactorPool::spawn(
            Arc::new(DropStub),
            "127.0.0.1:0",
            ReactorConfig::default(),
            1,
        )
        .expect("spawns");
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        let timeout = Some(std::time::Duration::from_secs(10));
        stream.set_read_timeout(timeout).expect("sets a timeout");
        stream
            .write_all(br#"{"id":7,"verb":"echo"}"#)
            .expect("writes");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-closes");
        let mut reader = BufReader::new(stream);
        assert_eq!(read_line(&mut reader), "{\"id\":7,\"ok\":true}\n");
        assert_eq!(read_line(&mut reader), "", "EOF after the one reply");
        wait_until(|| handle.stats().closed == 1);
        assert_eq!(handle.stats().responses, 1);
        handle.shutdown().expect("clean shutdown");
    }

    /// Read one reply: a single line, or every frame of a sweep through
    /// its `end` frame.
    fn read_reply(reader: &mut impl BufRead) -> Vec<String> {
        let mut reply = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("reads a line");
            let value: Value = serde_json::from_str(&line).expect("every reply line is JSON");
            let frame = field_str(&value, "frame").to_owned();
            reply.push(line.trim_end().to_owned());
            if frame.is_empty() || frame == "end" {
                return reply;
            }
        }
    }

    /// A reply with the fields that may differ by transport or timing
    /// removed (`latency_ms`, and the reactor fields of `stats`), and
    /// sweep frames stably ordered by item, since items stream in
    /// completion order.
    fn normalize(reply: &[String]) -> Vec<String> {
        let mut frames: Vec<(u64, String)> = reply
            .iter()
            .map(|line| {
                let mut value: Value = serde_json::from_str(line).expect("parses");
                if let Value::Map(entries) = &mut value {
                    entries.retain(|(k, _)| {
                        !matches!(k.as_str(), "latency_ms" | "reactor_threads" | "reactors")
                    });
                }
                let item = match field_str(&value, "frame") {
                    "start" => 0,
                    "end" => u64::MAX,
                    _ => field_u64(&value, "item").saturating_add(1),
                };
                (item, serde_json::to_string(&value).expect("renders"))
            })
            .collect();
        frames.sort_by_key(|(item, _)| *item);
        frames.into_iter().map(|(_, line)| line).collect()
    }

    /// The same session over stdio and TCP, on two fresh identical
    /// services, gets the same replies. The stdio run then ends with an
    /// over-long line: it is answered with `invalid_request` and nothing
    /// after it is read.
    #[test]
    fn stdio_and_tcp_answer_one_session_identically() {
        use atlas_liberty::{CellClass, Drive};
        use atlas_netlist::NetlistBuilder;

        let (model, cfg) = micro_trained();
        let start = || {
            Arc::new(AtlasService::start_with(
                model.clone(),
                cfg.clone(),
                ServiceConfig {
                    workers: 2,
                    ..ServiceConfig::default()
                },
            ))
        };
        let mut b = NetlistBuilder::new("parity");
        let sm = b.add_submodule("top.u0", "top");
        let a = b.add_input();
        let c = b.add_input();
        let x = b
            .add_cell(CellClass::Nor2, Drive::X1, &[a, c], sm)
            .expect("ok");
        let q = b.add_dff(x, sm).expect("ok");
        b.mark_output(q);
        let verilog = b.finish().expect("valid").to_verilog();
        let body = serde_json::to_string(&verilog).expect("escapes");

        let session: Vec<Vec<u8>> = vec![
            br#"{"id":1,"design":"C2","workload":"W1","cycles":6}"#.to_vec(),
            br#"{"id":2,"design":"C2","workload":"W1","cycles":6}"#.to_vec(),
            br#"{"id":3,"design":"C9","workload":"W1","cycles":6}"#.to_vec(),
            b"not json".to_vec(),
            // Not UTF-8: decoded lossily and refused, the session goes on.
            b"{\"id\":4,\"design\":\"\xff\xfe\"}".to_vec(),
            br#"{"id":5,"verb":"models"}"#.to_vec(),
            br#"{"id":6,"verb":"register_workload","name":"spiky","phases":[{"activity":0.6,"min_len":1,"max_len":3}]}"#.to_vec(),
            br#"{"id":7,"verb":"workloads"}"#.to_vec(),
            format!(r#"{{"id":8,"verb":"load_design","name":"parity","verilog":{body}}}"#)
                .into_bytes(),
            br#"{"id":9,"verb":"predict_delta","design":"C2","workload":"W1","cycles":9,"base":{"cycles":6}}"#.to_vec(),
            br#"{"id":10,"verb":"sweep","design":"C2","cycles":6,"chunk_cycles":4,"items":[{"workload":"W1"},{"workload":"W2"}]}"#.to_vec(),
            br#"{"id":11,"verb":"shard_map"}"#.to_vec(),
            br#"{"id":12,"verb":"stats"}"#.to_vec(),
        ];

        let handle = spawn_reactor(start(), ReactorConfig::default());
        let mut stream = TcpStream::connect(handle.addr()).expect("connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clones"));
        let tcp: Vec<Vec<String>> = session
            .iter()
            .map(|line| {
                stream.write_all(line).expect("writes");
                stream.write_all(b"\n").expect("writes");
                read_reply(&mut reader)
            })
            .collect();
        handle.shutdown().expect("clean shutdown");

        let max_line_bytes = ReactorConfig::default().max_line_bytes;
        let mut input = session.join(&b'\n');
        input.push(b'\n');
        input.resize(input.len() + max_line_bytes + 1, b'x');
        input.extend_from_slice(b"\n{\"id\":13,\"verb\":\"stats\"}\n");
        let mut out = Vec::new();
        serve_lines(&*start(), &input[..], &mut out).expect("stdio session");
        let mut out = &out[..];
        let stdio: Vec<Vec<String>> = session.iter().map(|_| read_reply(&mut out)).collect();
        let rest: Vec<String> = out.lines().map(|l| l.expect("utf-8")).collect();
        assert_eq!(rest.len(), 1, "nothing after the over-long line: {rest:?}");
        let refused: Value = serde_json::from_str(&rest[0]).expect("parses");
        assert_eq!(field_str(&refused, "kind"), "invalid_request");
        assert!(rest[0].contains("exceeds"), "got: {}", rest[0]);

        assert!(
            tcp[1][0].contains(r#""cache_hit":true"#),
            "got: {:?}",
            tcp[1]
        );
        assert!(tcp[4][0].contains("invalid_request"), "got: {:?}", tcp[4]);
        assert!(
            tcp[8][0].contains(r#""verb":"load_design""#),
            "got: {:?}",
            tcp[8]
        );
        assert!(
            tcp[9][0].contains(r#""base_hit":true"#),
            "got: {:?}",
            tcp[9]
        );
        assert_eq!(
            tcp[10].len(),
            1 + 2 * 3 + 1,
            "start, 2 × (item + 2 series), end"
        );
        for (i, (t, s)) in tcp.iter().zip(&stdio).enumerate() {
            assert_eq!(normalize(t), normalize(s), "reply {i} differs by transport");
        }
    }

    /// The lines a correct framer has yielded once fed `bytes` (and then
    /// the end of the stream, if `eof`), and whether it refused a line
    /// over `cap` bytes.
    fn reference_lines(bytes: &[u8], eof: bool, cap: usize) -> (Vec<String>, bool) {
        let mut lines = Vec::new();
        let mut rest = bytes;
        loop {
            let newline = rest.iter().position(|&b| b == b'\n');
            let end = newline.unwrap_or(rest.len());
            if end > cap {
                return (lines, true);
            }
            let line = String::from_utf8_lossy(&rest[..end]);
            if (newline.is_some() || eof) && !line.trim().is_empty() {
                lines.push(line.into_owned());
            }
            match newline {
                Some(nl) => rest = &rest[nl + 1..],
                None => return (lines, false),
            }
        }
    }

    /// Drives one [`ConnCore`] the way a transport does and checks it
    /// after every step against reference models of framing, write order
    /// and back-pressure.
    struct CoreHarness {
        core: ConnCore,
        cfg: ReactorConfig,
        input: Vec<u8>,
        fed: usize,
        eof: bool,
        refused: bool,
        yielded: Vec<String>,
        /// Submitted requests: (request number, reply frames still due).
        open: Vec<(usize, usize)>,
        requests: usize,
        /// Every byte queued so far, in queue order, and the lines.
        queued: Vec<u8>,
        lines_queued: usize,
        out: Vec<u8>,
        lines_written: usize,
        reading: bool,
    }

    impl CoreHarness {
        fn queue_model(&mut self, line: &str) {
            self.queued.extend_from_slice(line.as_bytes());
            self.queued.push(b'\n');
            self.lines_queued += 1;
        }

        /// One read of up to `n` bytes (0 left: the end of the stream),
        /// if the core wants to read, then every line dispatched.
        fn read(&mut self, n: usize, close: bool) {
            if !self.reading {
                return;
            }
            if close || self.fed == self.input.len() {
                self.core.feed(&[]);
                self.eof = true;
            } else {
                let end = (self.fed + n).min(self.input.len());
                self.core.feed(&self.input[self.fed..end]);
                self.fed = end;
            }
            while let Some(line) = self.core.next_line() {
                assert!(!self.refused, "a refusal ends reading");
                let reply = match line {
                    Ok(line) => {
                        // Each 0xff byte decodes to one 3-byte U+FFFD.
                        let raw = line.len() - 2 * line.matches('\u{fffd}').count();
                        assert!(raw <= self.cfg.max_line_bytes, "over the cap: {line:?}");
                        self.yielded.push(line.into_owned());
                        self.requests += 1;
                        let n = self.requests;
                        if n.is_multiple_of(3) {
                            Some(format!("inline {n}"))
                        } else {
                            self.open.push((n, 1 + n % 4));
                            None
                        }
                    }
                    Err(refusal) => {
                        self.refused = true;
                        Some(refusal)
                    }
                };
                match reply {
                    Some(reply) => {
                        self.core.queue(&reply);
                        self.queue_model(&reply);
                    }
                    None => self.core.submitted(),
                }
            }
            let (lines, refused) =
                reference_lines(&self.input[..self.fed], self.eof, self.cfg.max_line_bytes);
            assert_eq!(self.yielded, lines);
            assert_eq!(self.refused, refused);
        }

        /// One reply frame of the `pick`-th open request, in any order.
        fn complete(&mut self, pick: usize) {
            if self.open.is_empty() {
                return;
            }
            let i = pick % self.open.len();
            let (request, due) = self.open[i];
            let line = format!("reply {request} frame {due}");
            self.core.complete(&line, due == 1);
            self.queue_model(&line);
            if due == 1 {
                self.open.swap_remove(i);
            } else {
                self.open[i].1 -= 1;
            }
        }

        /// A write that stops after at most `n` bytes.
        fn write(&mut self, n: usize) {
            let unwritten = self.core.unwritten();
            assert_eq!(unwritten, &self.queued[self.out.len()..]);
            let n = n.min(unwritten.len());
            self.out.extend_from_slice(&unwritten[..n]);
            self.lines_written += self.core.wrote(n);
            let newlines = self.out.iter().filter(|&&b| b == b'\n').count();
            assert_eq!(self.lines_written, newlines);
        }

        fn check(&mut self) {
            let pending = self.queued.len() - self.out.len();
            let inflight = self.open.len();
            let closed = self.eof || self.refused;
            let (max_inflight, high_water) = (self.cfg.max_inflight, self.cfg.write_high_water);
            let read = !closed
                && if self.reading {
                    inflight < max_inflight && pending < high_water
                } else {
                    inflight < max_inflight.div_ceil(2) && pending < high_water / 2
                };
            let want = Interest {
                read,
                write: pending > 0,
                paused: self.reading && !read && !closed,
            };
            assert_eq!(self.core.interest(), want);
            self.reading = read;
            assert_eq!(self.core.in_flight(), inflight);
            assert_eq!(
                self.core.finished(),
                closed && inflight == 0 && pending == 0
            );
        }
    }

    proptest::proptest! {
        /// Random read chunkings, partial writes, early peer closes and
        /// completion orders (multi-frame replies included): the core
        /// yields exactly the reference lines, writes exactly the queued
        /// lines in order, pauses and resumes at the reference thresholds,
        /// and finishes exactly when nothing is left to do.
        #[test]
        fn conn_core_matches_reference_models(
            cap in 1usize..40,
            high_water in 2usize..80,
            max_inflight in 1usize..6,
            input in proptest::collection::vec(0u8..8, 0..300),
            ops in proptest::collection::vec((0u8..7, 1usize..64), 0..160),
        ) {
            let cfg = ReactorConfig {
                max_line_bytes: cap,
                write_high_water: high_water,
                max_inflight,
                ..ReactorConfig::default()
            };
            let input = input
                .into_iter()
                .map(|b| match b {
                    0 => b'\n',
                    1 => b' ',
                    2 => b'\r',
                    3 => 0xff,
                    b => b'a' + b,
                })
                .collect();
            let mut h = CoreHarness {
                core: ConnCore::new(&cfg),
                cfg,
                input,
                fed: 0,
                eof: false,
                refused: false,
                yielded: Vec::new(),
                open: Vec::new(),
                requests: 0,
                queued: Vec::new(),
                lines_queued: 0,
                out: Vec::new(),
                lines_written: 0,
                reading: true,
            };
            for (op, n) in ops {
                match op {
                    0 | 1 => h.read(n, false),
                    2 | 3 => h.complete(n),
                    4 | 5 => h.write(n),
                    _ => h.read(n, n < 4),
                }
                h.check();
            }
            // Drain: answer and write everything, reading on to the end.
            let mut steps = 0;
            while !h.core.finished() {
                steps += 1;
                assert!(steps < 10_000, "the stream never finished");
                while !h.open.is_empty() {
                    h.complete(0);
                }
                h.write(usize::MAX);
                h.check();
                h.read(64, false);
                h.check();
            }
            assert_eq!(&h.out, &h.queued);
            assert_eq!(h.lines_written, h.lines_queued);
        }
    }

    /// Forwards every `"verb":"forward"` line, under its own id, to its
    /// one upstream, and echoes every other line inline.
    struct ForwardStub(String);

    impl Frontend for ForwardStub {
        fn handle(&self, line: &str, ctx: &FrontendContext<'_>) -> Option<String> {
            if !line.contains(r#""verb":"forward""#) {
                return Some(line.to_owned());
            }
            let id = protocol::salvage_id(line);
            ctx.forward(0, id.unwrap_or(0), ctx.completer(id), line.to_owned());
            None
        }

        fn upstreams(&self) -> Vec<String> {
            vec![self.0.clone()]
        }
    }

    #[test]
    fn cooldown_suppresses_reconnect_storms() {
        // An upstream nobody listens on: every dial fails. With the
        // cooldown in place, a burst of forwards dials once per window
        // instead of once per request.
        let dead = TcpListener::bind("127.0.0.1:0")
            .and_then(|sock| sock.local_addr())
            .expect("reserves a port");
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let mut lp = Loop::new(
            Arc::new(ForwardStub(dead.to_string())),
            Vec::new().into(),
            listener,
            ReactorConfig::default(),
            Arc::new(Completions::new().expect("eventfd")),
            Arc::default(),
            &[(dead.to_string(), vec![dead])],
        )
        .expect("builds a loop");
        let forward = |lp: &mut Loop, id: u64| {
            let completer = Completer {
                token: FIRST_CONN_TOKEN,
                id: Some(id),
                completions: Arc::clone(&lp.completions),
                answered: AtomicBool::new(false),
            };
            lp.forward((0, id, completer, format!(r#"{{"id":{id}}}"#)));
        };
        forward(&mut lp, 0);
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 8];
        while lp.upstreams[0].failed_at.is_none() {
            assert!(lp.turn(&mut events).expect("waits"), "not shut down");
        }
        let failed_at = lp.upstreams[0].failed_at;
        for id in 1..5 {
            forward(&mut lp, id);
            assert!(
                lp.upstreams[0].conn.is_none(),
                "only the first forward in the window may dial the dead upstream"
            );
        }
        assert_eq!(lp.upstreams[0].failed_at, failed_at, "no second dial");
        // Each forward was answered once, with `unavailable`.
        let answers = lp.completions.drain();
        let ids: Vec<u64> = answers
            .iter()
            .map(|c| {
                assert!(c.line.contains(r#""kind":"unavailable""#), "{}", c.line);
                field_u64(&serde_json::from_str(&c.line).expect("parses"), "id")
            })
            .collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
    }

    /// A dial the upstream never answers (its accept queue is full, so the
    /// kernel drops the SYNs) fails each request waiting on it with one
    /// `unavailable` once [`CONNECT_TIMEOUT`] passes, and meanwhile the
    /// reactor serves its other clients.
    #[test]
    fn dial_that_never_completes_times_out() {
        use std::time::Instant;

        let upstream =
            sys::reuseport_listener(std::net::SocketAddrV4::new([127, 0, 0, 1].into(), 0), 0)
                .expect("listens");
        let addr = upstream.local_addr().expect("addr");
        // Fill the accept queue: connect until a dial no longer completes.
        let short = std::time::Duration::from_millis(500);
        let _fillers: Vec<TcpStream> = (0..4)
            .map_while(|_| TcpStream::connect_timeout(&addr, short).ok())
            .collect();
        let pool = ReactorPool::spawn(
            Arc::new(ForwardStub(addr.to_string())),
            "127.0.0.1:0",
            ReactorConfig::default(),
            1,
        )
        .expect("spawns");
        let mut stuck = TcpStream::connect(pool.addr()).expect("connects");
        let mut stuck_reader = BufReader::new(stuck.try_clone().expect("clones"));
        let started = Instant::now();
        send_line(&mut stuck, r#"{"id":1,"verb":"forward"}"#);
        send_line(&mut stuck, r#"{"id":2,"verb":"forward"}"#);

        let mut other = TcpStream::connect(pool.addr()).expect("connects");
        let mut other_reader = BufReader::new(other.try_clone().expect("clones"));
        send_line(&mut other, r#"{"id":3,"verb":"echo"}"#);
        assert_eq!(
            read_line(&mut other_reader),
            "{\"id\":3,\"verb\":\"echo\"}\n"
        );
        assert!(
            started.elapsed() < CONNECT_TIMEOUT,
            "served during the dial"
        );

        let mut ids: Vec<u64> = (0..2)
            .map(|_| {
                let reply = read_line(&mut stuck_reader);
                assert!(reply.contains(r#""kind":"unavailable""#), "got: {reply}");
                field_u64(&serde_json::from_str(&reply).expect("parses"), "id")
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, [1, 2], "one answer each");
        let waited = started.elapsed();
        assert!(
            waited < CONNECT_TIMEOUT + std::time::Duration::from_secs(1),
            "answered after {waited:?}"
        );
        pool.shutdown().expect("clean shutdown");
    }

    fn wait_until(mut cond: impl FnMut() -> bool) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("condition not reached within 2s");
    }
}
