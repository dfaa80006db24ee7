//! Host-side measurements taken from outside the program: process CPU
//! time, context switches and peak memory (`getrusage`), and the host
//! environment every result is recorded with.

use std::path::Path;
use std::process::Command;

/// Process-wide resource usage: all threads, live and exited.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size (the kernel's `VmHWM`), MiB.
    pub peak_rss_mb: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let r = rusage_self();
        let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            user_s: secs(r.ru_utime),
            sys_s: secs(r.ru_stime),
            ctx_switches: (r.ru_nvcsw + r.ru_nivcsw) as u64,
            peak_rss_mb: r.ru_maxrss as f64 / 1024.0,
        }
    }

    /// Usage accrued between `earlier` and `self` (peak RSS is a high-water
    /// mark, so it is kept as is).
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            peak_rss_mb: self.peak_rss_mb,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage with the 64-bit Linux layout");

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage_self() -> RUsage {
    const RUSAGE_SELF: i32 = 0;
    let mut r = RUsage::default();
    // SAFETY: `r` is a live, writable `struct rusage` with the 64-bit Linux
    // layout (checked by the compile_error above), and getrusage writes
    // only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    r
}

/// The host facts a result depends on.
pub struct Env {
    pub nproc: usize,
    pub commit: String,
    pub rustc: String,
    pub profile: &'static str,
}

impl Env {
    pub fn detect() -> Env {
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: command_line(&mut git_head())
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
            rustc: command_line(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// `git rev-parse HEAD` for a repository rooted at the working directory
/// only: git must not find (and report) some enclosing repository.
fn git_head() -> Command {
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(str::to_owned)
}
