//! Child processes: spawn, wait for the listen address, sample peak
//! memory, and reap on every exit path — drop (normal return and panic
//! unwind), SIGINT/SIGTERM/SIGHUP (a handler stops every registered
//! child and waits for it), and the death of this process
//! (`PR_SET_PDEATHSIG`, for SIGKILL, which no handler sees).

use std::fs::File;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicI32, Ordering};
use std::time::{Duration, Instant};

mod sys {
    extern "C" {
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        pub fn signal(signum: i32, handler: usize) -> usize;
        pub fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        pub fn _exit(status: i32) -> !;
    }
    pub const SIGHUP: i32 = 1;
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    pub const PR_SET_PDEATHSIG: i32 = 1;
}

/// Pids of live children, for the signal handler (0 = free slot).
static LIVE: [AtomicI32; 32] = [const { AtomicI32::new(0) }; 32];

extern "C" fn on_signal(sig: i32) {
    for slot in &LIVE {
        let pid = slot.swap(0, Ordering::SeqCst);
        if pid > 0 {
            // SAFETY: kill, waitpid and _exit are async-signal-safe; the
            // null status pointer is allowed by waitpid.
            unsafe {
                sys::kill(pid, sys::SIGTERM);
                sys::waitpid(pid, std::ptr::null_mut(), 0);
            }
        }
    }
    // SAFETY: _exit is async-signal-safe and never returns.
    unsafe { sys::_exit(128 + sig) }
}

/// Stop and wait for every registered child when this process is
/// interrupted or terminated, then exit with `128 + signal`.
pub fn install_signal_handlers() {
    for sig in [sys::SIGHUP, sys::SIGINT, sys::SIGTERM] {
        // SAFETY: `on_signal` is an `extern "C" fn(i32)` that only calls
        // async-signal-safe functions and touches atomics.
        unsafe { sys::signal(sig, on_signal as *const () as usize) };
    }
}

/// A spawned child, registered for the signal handler and stopped (then
/// waited for) on drop.
pub struct Proc {
    child: Child,
    slot: usize,
    log: PathBuf,
}

impl Proc {
    /// Spawn `exe` with stdout and stdin closed and stderr written to
    /// `log`; the child is sent SIGTERM if this process dies.
    pub fn spawn(exe: &Path, args: &[String], log: &Path) -> Result<Proc, String> {
        let stderr = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let mut cmd = Command::new(exe);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        // SAFETY: prctl is async-signal-safe and allocates nothing, as a
        // pre_exec hook requires.
        unsafe {
            cmd.pre_exec(|| {
                sys::prctl(sys::PR_SET_PDEATHSIG, sys::SIGTERM as u64, 0, 0, 0);
                Ok(())
            });
        }
        Proc::register(cmd, exe, log)
    }

    /// Spawn `cmd` as is (stdio inherited), registered like [`Proc::spawn`].
    pub fn spawn_command(cmd: Command, what: &Path) -> Result<Proc, String> {
        Proc::register(cmd, what, Path::new(""))
    }

    fn register(mut cmd: Command, exe: &Path, log: &Path) -> Result<Proc, String> {
        let slot = LIVE
            .iter()
            .position(|s| s.load(Ordering::SeqCst) == 0)
            .ok_or("too many child processes")?;
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        LIVE[slot].store(child.id() as i32, Ordering::SeqCst);
        Ok(Proc {
            child,
            slot,
            log: log.to_owned(),
        })
    }

    /// Wait until the child's stderr log has a line containing `marker`
    /// and return the token that follows it (a listen address).
    pub fn wait_for(&mut self, marker: &str, timeout: Duration) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let text = std::fs::read_to_string(&self.log).unwrap_or_default();
            if let Some(rest) = text
                .lines()
                .find_map(|l| l.split_once(marker).map(|(_, r)| r))
            {
                if let Some(token) = rest.split_whitespace().next() {
                    return Ok(token.to_owned());
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("exited with {status} before `{marker}`: {text}"));
            }
            if Instant::now() > deadline {
                return Err(format!("no `{marker}` within {timeout:?}: {text}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Wait for the child to exit on its own.
    pub fn wait(mut self) -> Result<std::process::ExitStatus, String> {
        let status = self.child.wait().map_err(|e| format!("wait: {e}"));
        LIVE[self.slot].store(0, Ordering::SeqCst);
        status
    }

    /// Peak resident set (`VmHWM`) of the child, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kb / 1024.0)
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if LIVE[self.slot].swap(0, Ordering::SeqCst) != 0 {
            // SAFETY: the pid is our own unreaped child (the slot was
            // still registered), so it cannot have been recycled.
            unsafe { sys::kill(self.child.id() as i32, sys::SIGTERM) };
            let _ = self.child.wait();
        }
    }
}
