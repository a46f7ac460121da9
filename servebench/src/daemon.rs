//! Building, starting and stopping the `sigserve` daemon under test.

use std::fs::File;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sigserve::{decode_response, Response, StatsReply};

use crate::client::Conn;

/// Scheduler workers, one per core of the reference host.
pub const WORKERS: usize = 2;

/// Daemon flags every workload runs with: the daemon as shipped, with
/// [`WORKERS`] workers.
#[must_use]
pub fn flags() -> [String; 2] {
    ["--workers".to_string(), WORKERS.to_string()]
}

/// Builds the `sigserve` binary from the checkout's sources and returns
/// its path. Cargo's own output goes to stderr.
///
/// # Errors
///
/// Describes a failed or unstartable build.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "sigserve",
            "--bin",
            "sigserve",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building sigserve failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    Ok(target.join("release").join("sigserve"))
}

/// A running daemon; killed on drop if not stopped.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    running: bool,
    /// `host:port` the daemon listens on.
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon on a free loopback port with `SIG_OBS` unset.
    ///
    /// # Errors
    ///
    /// Propagates port probing and spawn failures.
    pub fn spawn(bin: &Path, models_dir: &Path, log: &Path) -> io::Result<Self> {
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr = format!("127.0.0.1:{port}");
        let mut command = Command::new(bin);
        command
            .args(["--addr", &addr, "--models-dir"])
            .arg(models_dir)
            .args(flags())
            .env_remove("SIG_OBS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(log)?);
        die_with_parent(&mut command);
        let child = command.spawn()?;
        Ok(Self {
            child,
            running: true,
            addr,
        })
    }

    /// Connects, retrying while the daemon is still binding its port.
    ///
    /// # Errors
    ///
    /// The last connect error at `deadline`, or the daemon's early exit.
    pub fn connect(&mut self, deadline: Instant) -> io::Result<Conn> {
        loop {
            match Conn::connect(&self.addr) {
                Ok(conn) => return Ok(conn),
                Err(e) => {
                    if let Some(status) = self.child.try_wait()? {
                        self.running = false;
                        return Err(io::Error::other(format!("daemon exited: {status}")));
                    }
                    if Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        }
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    ///
    /// # Errors
    ///
    /// When `/proc/<pid>/status` is unreadable or lacks the field.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Reads the daemon's counters over a fresh connection.
    ///
    /// # Errors
    ///
    /// Describes socket failures and unexpected replies.
    pub fn stats(&mut self) -> Result<StatsReply, String> {
        let mut conn = self
            .connect(Instant::now() + Duration::from_secs(5))
            .map_err(|e| e.to_string())?;
        conn.send(1, ",\"op\":\"stats\"}")
            .map_err(|e| e.to_string())?;
        let reply = conn
            .recv(Instant::now() + Duration::from_secs(10))
            .map_err(|e| e.to_string())?;
        match decode_response(&reply) {
            Ok(Response::Stats { stats, .. }) => Ok(stats),
            _ => Err(format!("unexpected stats reply: {reply}")),
        }
    }

    /// Asks for a graceful shutdown and waits for the process to exit,
    /// killing it if it does not within 30 s.
    pub fn stop(mut self) {
        if let Ok(mut conn) = Conn::connect(&self.addr) {
            let _ = conn.send(1, ",\"op\":\"shutdown\"}");
            let _ = conn.recv(Instant::now() + Duration::from_secs(30));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                self.running = false;
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Has the kernel kill the daemon if the benchmark dies first (a killed
/// benchmark runs no destructors), so no daemon outlives its run.
#[cfg(target_os = "linux")]
fn die_with_parent(command: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_PDEATHSIG: std::ffi::c_int = 1;
    const SIGKILL: std::ffi::c_ulong = 9;
    // SAFETY: prctl(PR_SET_PDEATHSIG) only sets a flag on the calling
    // (forked, not yet exec'd) process; it touches no memory and is
    // async-signal-safe.
    unsafe {
        command.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_: &mut Command) {}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.running {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
