//! The server under test as a child process, and the scratch directory
//! its files live in. Both clean up in `Drop`, so a failed check that
//! unwinds through the harness leaves no process and no file behind.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use ceg_service::Client;

/// `<target>/cegbench/<pid>/`, removed on drop.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    pub fn create(target_dir: &Path) -> io::Result<Scratch> {
        let dir = target_dir
            .join("cegbench")
            .join(std::process::id().to_string());
        // A previous process with this pid may have been killed mid-run.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// An empty directory `name` (any earlier content removed).
    pub fn fresh_dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What the server's `serving ... on <addr>` banner says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Banner {
    pub addr: SocketAddr,
    pub edges: u64,
    pub epoch: u64,
}

/// Parse `serving `default` (9000 vertices, 18660 edges, 0 catalog
/// entries, epoch 3) on 127.0.0.1:40123 [2 workers, ...]`.
pub fn parse_banner(line: &str) -> Option<Banner> {
    let rest = line.strip_prefix("serving ")?;
    let number_before = |marker: &str| -> Option<u64> {
        let head = &rest[..rest.find(marker)?];
        head.rsplit(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    let edges = number_before(" edges")?;
    let after_epoch = &rest[rest.find("epoch ")? + "epoch ".len()..];
    let epoch = after_epoch[..after_epoch.find(')')?].parse().ok()?;
    let after_on = &rest[rest.find(") on ")? + ") on ".len()..];
    let addr = after_on.split_whitespace().next()?.parse().ok()?;
    Some(Banner { addr, edges, epoch })
}

/// A running `cegcli serve`. Killed (SIGKILL) and reaped on drop.
pub struct ServerProc {
    child: Child,
    // Held so the server's later prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub banner: Banner,
    /// Spawn to first `PONG`.
    pub boot: Duration,
}

impl ServerProc {
    /// Start `cegcli serve 127.0.0.1:0 <args>`, wait for its banner and
    /// its first `PONG`.
    pub fn spawn(cegcli: &Path, args: &[String]) -> io::Result<ServerProc> {
        let started = Instant::now();
        let mut child = Command::new(cegcli)
            .arg("serve")
            .arg("127.0.0.1:0")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("no stdout pipe"));
        let booted = stdout.and_then(|out| {
            let mut out = BufReader::new(out);
            let banner = read_banner(&mut out)?;
            Client::connect(banner.addr)?.ping()?;
            Ok((out, banner))
        });
        match booted {
            Ok((out, banner)) => Ok(ServerProc {
                child,
                _stdout: out,
                banner,
                boot: started.elapsed(),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "cegcli serve {args:?} did not come up: {e}"
                )))
            }
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.banner.addr
    }

    /// CPU time the server has used so far (user + system, all threads),
    /// from `/proc/<pid>/stat`. Unlike the wall clock it does not count
    /// time the server spent waiting for a core another tenant held.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        parse_cpu_ticks(&stat)
            .map(|ticks| ticks as f64 / CLOCK_TICKS_PER_SECOND)
            .ok_or_else(|| io::Error::other("unreadable /proc stat line"))
    }

    /// Peak resident set (`VmHWM`) in MiB, from `/proc/<pid>/status`.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM line in /proc status"))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `USER_HZ`: the unit of the times in `/proc/<pid>/stat`, 100 on every
/// Linux port this runs on.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name in field 2 may hold spaces, so fields count from its `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let mut fields = stat[stat.rfind(')')? + 1..].split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

fn read_banner(out: &mut impl BufRead) -> io::Result<Banner> {
    let mut line = String::new();
    loop {
        line.clear();
        if out.read_line(&mut line)? == 0 {
            return Err(io::Error::other("server exited before its banner"));
        }
        if line.starts_with("serving ") {
            return parse_banner(line.trim_end()).ok_or_else(|| {
                io::Error::other(format!("unreadable banner `{}`", line.trim_end()))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_yields_port_edges_and_epoch() {
        let line = "serving `default` (9000 vertices, 18660 edges, 12 catalog entries, epoch 7) \
                    on 127.0.0.1:40123 [2 workers, batch<=32, cache 4096 buckets, 1 catalog jobs, \
                    recovered from data dir]";
        let b = parse_banner(line).expect("banner parses");
        assert_eq!(b.addr, "127.0.0.1:40123".parse().unwrap());
        assert_eq!(b.addr.port(), 40123);
        assert_eq!(b.edges, 18660);
        assert_eq!(b.epoch, 7);
    }

    #[test]
    fn other_lines_are_not_banners() {
        assert_eq!(
            parse_banner("recovered `default` from d: snapshot epoch 0"),
            None
        );
        assert_eq!(
            parse_banner("serving `default` (1 vertices) on nowhere"),
            None
        );
        assert_eq!(parse_banner(""), None);
    }

    #[test]
    fn banner_is_found_after_recovery_chatter() {
        let text = "data dir d is already initialized; recovering from it\n\
                    recovered `default` from d: snapshot epoch 0, replayed 3 commits (6 ops) -> epoch 3\n\
                    serving `default` (10 vertices, 20 edges, 0 catalog entries, epoch 3) on 127.0.0.1:9 [x]\n";
        let b = read_banner(&mut text.as_bytes()).expect("banner found");
        assert_eq!((b.edges, b.epoch, b.addr.port()), (20, 3, 9));
        assert!(read_banner(&mut "swept nothing\n".as_bytes()).is_err());
    }

    #[test]
    fn cpu_ticks_are_fields_14_and_15() {
        let line =
            "4242 (ceg cli) S 1 4242 4242 0 -1 4194304 900 0 0 0 1234 66 0 0 20 0 5 0 77 1 2";
        assert_eq!(parse_cpu_ticks(line), Some(1300));
        assert_eq!(parse_cpu_ticks("4242 (x) S 1 2"), None);
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        // Beside the test binary, so the test writes only under the target dir.
        let exe = std::env::current_exe().unwrap();
        let base = exe.parent().unwrap().join("cegbench-scratch-test");
        let dir = {
            let s = Scratch::create(&base).unwrap();
            std::fs::write(s.path("f"), b"x").unwrap();
            let d = s.fresh_dir("data").unwrap();
            assert!(d.is_dir());
            s.path("")
        };
        assert!(!dir.exists());
        let _ = std::fs::remove_dir_all(&base);
    }
}
