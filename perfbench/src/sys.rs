//! The few Linux facilities std does not expose: `poll(2)` readiness for
//! the nonblocking load generator, per-thread CPU time for its busy
//! share, hypervisor steal time, `VmHWM` for peak memory, and a
//! parent-death signal so a killed benchmark never leaves servers behind.
//!
//! Every `unsafe` block in the benchmark lives in this file.

#![deny(unsafe_op_in_unsafe_fn)]

use std::os::fd::RawFd;
use std::time::Duration;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

impl PollFd {
    /// Interest in `fd`: always readable, writable only when asked.
    pub fn new(fd: RawFd, want_write: bool) -> PollFd {
        PollFd {
            fd,
            events: POLLIN | if want_write { POLLOUT } else { 0 },
            revents: 0,
        }
    }

    /// Readable, or the peer hung up or errored (a read reports which).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// Writable without blocking.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR) != 0
    }
}

/// Waits until one of `fds` is ready or `timeout` passes; returns how
/// many are ready (0 on timeout or an interrupted wait).
pub fn wait_ready(fds: &mut [PollFd], timeout: Duration) -> usize {
    let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd structs and `nfds` is its exact length, so the kernel reads
    // and writes only inside it.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
    usize::try_from(ready).unwrap_or(0)
}

/// CPU time the calling thread has used so far.
pub fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the thread CPU-time clock exists on every Linux kernel.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0),
    )
}

/// Arranges for the child about to be spawned to receive `SIGKILL` when
/// the thread that spawned it exits, so servers die with a killed
/// benchmark. Spawn children from the main thread only.
pub fn kill_with_parent(command: &mut std::process::Command) {
    use std::os::unix::process::CommandExt;
    let hook = || {
        // SAFETY: PR_SET_PDEATHSIG takes one integer signal number and
        // reads no memory.
        if unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    };
    // SAFETY: the hook runs in the forked child before `exec`, allocates
    // nothing, and only calls `prctl`, which is async-signal-safe.
    unsafe {
        command.pre_exec(hook);
    }
}

/// CPU time the hypervisor has taken from this machine's CPUs (the
/// `steal` column of `/proc/stat`), in clock ticks; 0 where unreported.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?.to_owned();
            cpu.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in kibibytes.
pub fn peak_rss_kib(pid: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line for process {pid}"))
}
