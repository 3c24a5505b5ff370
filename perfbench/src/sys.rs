//! The two Linux calls the open-loop generator needs and `std` does not
//! offer: a readiness wait with a nanosecond timeout, and a timer slack
//! small enough that the wait ends when it was asked to.

use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Sets this thread's timer slack to 1 ns (the default 50 µs would make
/// every short wait overshoot the request schedule).
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Waits until `stream` has bytes to read or `timeout` passes. Returns
/// whether it is readable (errors and hang-ups count as readable, so the
/// following read reports them).
pub fn wait_readable(stream: &impl AsRawFd, timeout: Duration) -> bool {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out locals for the
    // duration of the call; nfds = 1 matches the single pollfd; a null
    // sigmask leaves the signal mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0 && fd.revents != 0
}
