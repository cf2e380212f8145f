//! The `chatls serve` process under test: launch, HTTP exchange, resource
//! probes and shutdown.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use chatls_serve::{read_response, Request};

/// How long a launch may take before the benchmark gives up.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a drained daemon may take to exit before it is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(15);

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every mainstream Linux configuration).
const CLOCK_TICKS_PER_S: f64 = 100.0;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// One running daemon.
pub struct Daemon {
    child: Child,
    /// `host:port` the daemon listens on.
    pub addr: String,
}

/// One HTTP answer: status (`0` for a transport error) and body.
pub struct Answer {
    pub status: u16,
    pub body: String,
}

impl Daemon {
    /// Starts `chatls serve` on a free loopback port with `workers`
    /// workers and no background warmer, in `cwd` (which must hold no
    /// database file, so the daemon builds its quick in-memory one), and
    /// returns once `/healthz` answers.
    pub fn launch(exe: &Path, workers: usize, cwd: &Path) -> Result<Self, String> {
        let started = Instant::now();
        let mut child = Command::new(exe)
            .args(["serve", "--addr", "127.0.0.1:0", "--no-warm", "--quiet"])
            .args(["--workers", &workers.to_string()])
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        // Reads the bound address from the startup line, then keeps
        // draining stderr so the daemon can never block on a full pipe.
        std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                    }
                }
            }
        });
        let mut daemon = Daemon { child, addr: String::new() };
        let remaining = LAUNCH_TIMEOUT.saturating_sub(started.elapsed());
        match rx.recv_timeout(remaining) {
            Ok(addr) => daemon.addr = addr,
            Err(_) => {
                daemon.kill();
                return Err("daemon did not report a listening address".into());
            }
        }
        while daemon.get("/healthz").status != 200 {
            if started.elapsed() > LAUNCH_TIMEOUT {
                daemon.kill();
                return Err("daemon never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(daemon)
    }

    /// One `POST` exchange on a fresh connection (the daemon closes every
    /// connection after its response).
    pub fn post(&self, path: &str, body: &str) -> Answer {
        self.exchange("POST", path, body)
    }

    /// One `GET` exchange.
    pub fn get(&self, path: &str) -> Answer {
        self.exchange("GET", path, "")
    }

    fn exchange(&self, method: &str, path: &str, body: &str) -> Answer {
        let req = Request {
            method: method.to_string(),
            path: path.to_string(),
            body: body.as_bytes().to_vec(),
            ..Default::default()
        };
        let run = || -> std::io::Result<Answer> {
            let mut stream = TcpStream::connect(&self.addr)?;
            stream.set_nodelay(true)?;
            req.write_to(&mut stream)?;
            let resp = read_response(&mut stream)?;
            Ok(Answer {
                status: resp.status,
                body: String::from_utf8_lossy(&resp.body).into_owned(),
            })
        };
        run().unwrap_or_else(|e| Answer { status: 0, body: e.to_string() })
    }

    /// Every counter and gauge `/metrics` exposes, by name.
    pub fn metrics(&self) -> Result<Vec<(String, f64)>, String> {
        let answer = self.get("/metrics");
        if answer.status != 200 {
            return Err(format!("/metrics answered {}", answer.status));
        }
        Ok(answer
            .body
            .lines()
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// User plus system CPU seconds the daemon has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("reading daemon CPU time: {e}"))?;
        // Fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15.
        let fields: Vec<&str> =
            stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("").split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(u), Some(s)) => Ok((u + s) / CLOCK_TICKS_PER_S),
            _ => Err("malformed /proc stat line".into()),
        }
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM line in daemon status".into())
    }

    /// Asks the daemon to drain (SIGTERM) and waits for it to exit,
    /// killing it if it does not within [`STOP_TIMEOUT`].
    pub fn stop(mut self) -> Result<(), String> {
        // SAFETY: plain kill(2) on our own child's pid.
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    self.kill();
                    return Err("daemon did not drain in time".into());
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
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}
