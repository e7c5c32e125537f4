//! The daemon under test: `quickrec serve` as its own process.

use qr_server::proto::{Endpoint, Request, Response};
use qr_server::Client;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a spawned daemon gets to answer its first PING.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// How long shutdown may take (it drains queued jobs) before a kill.
const STOP_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `quickrec serve` with default settings, listening on a
/// Unix socket in its own directory, which also holds its store.
pub struct Daemon {
    child: Child,
    endpoint: Endpoint,
}

impl Daemon {
    /// Spawns the daemon in `dir` (created fresh; relative to the working
    /// directory) and waits until it answers PING.
    pub fn start(quickrec: &Path, dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        // A relative socket path stays within sun_path's ~100 bytes
        // wherever the checkout lives.
        let socket = dir.join("qd.sock");
        let started = Instant::now();
        let child = Command::new(quickrec)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(dir.join("qr-store"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", quickrec.display()))?;
        let mut daemon = Daemon {
            child,
            endpoint: Endpoint::Unix(socket),
        };
        loop {
            // Poll every 100 us: start-up takes a few milliseconds, and a
            // coarse retry sleep would quantize the figure.
            if let Ok(mut client) = Client::connect(&daemon.endpoint) {
                if client.ping().is_ok() {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if started.elapsed() > START_TIMEOUT {
                daemon.kill();
                return Err("daemon did not answer PING in time".into());
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Where clients connect.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// A new connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| e.to_string())
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// CPU time the daemon has used so far (user + system), in seconds.
    /// Time the host stole from the guest is not in it.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        // Fields after the parenthesized command name; utime and stime
        // are fields 14 and 15 of the line, in USER_HZ (100/s) ticks.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
        let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
        match (tick(11), tick(12)) {
            (Some(user), Some(system)) => Ok((user + system) / 100.0),
            _ => Err(format!("no utime/stime in {path}")),
        }
    }

    /// Sends SHUTDOWN and waits for the process to exit (killing it if
    /// it does not drain in time).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.call(&Request::Shutdown).map_err(|e| e.to_string()));
        if !matches!(asked, Ok(Response::ShuttingDown)) {
            self.kill();
            return Err(format!("daemon refused SHUTDOWN: {asked:?}"));
        }
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    self.kill();
                    return Err("daemon did not shut down in time".into());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached only on an error path that skipped `stop`: never leave
        // a daemon behind.
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// Host-wide CPU ticks: (stolen by the hypervisor, all).
pub fn host_ticks() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map_or(vec![], |l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        });
    // user nice system idle iowait irq softirq steal
    match ticks.get(..8) {
        Some(t) => Ok((t[7], t.iter().sum())),
        None => Err("malformed /proc/stat".into()),
    }
}
