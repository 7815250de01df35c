//! A tiny latch for coordinating graceful shutdown across threads.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A one-way "please stop" latch: once requested it stays requested.
///
/// The accept loop and the poller shards check it on every pass, and
/// [`request`](ShutdownSignal::request) wakes anything blocked in
/// [`wait_timeout`](ShutdownSignal::wait_timeout).
#[derive(Debug, Default)]
pub struct ShutdownSignal {
    requested: Mutex<bool>,
    bell: Condvar,
}

impl ShutdownSignal {
    /// A fresh, un-requested signal.
    #[must_use]
    pub fn new() -> Self {
        ShutdownSignal::default()
    }

    fn lock(&self) -> MutexGuard<'_, bool> {
        // The critical sections below cannot panic, so poisoning can only
        // come from a foreign panic mid-lock; the boolean is still valid.
        self.requested
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Requests shutdown and wakes all waiters. Idempotent.
    pub fn request(&self) {
        *self.lock() = true;
        self.bell.notify_all();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        *self.lock()
    }

    /// Blocks until shutdown is requested or `timeout` elapses; returns
    /// whether shutdown was requested.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let mut requested = self.lock();
        if *requested {
            return true;
        }
        let (guard, _) = self
            .bell
            .wait_timeout(requested, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        requested = guard;
        *requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn latch_is_sticky_and_wakes_waiters() {
        let signal = Arc::new(ShutdownSignal::new());
        assert!(!signal.is_requested());
        assert!(!signal.wait_timeout(Duration::from_millis(1)));
        let waiter = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || signal.wait_timeout(Duration::from_secs(30)))
        };
        signal.request();
        signal.request(); // idempotent
        assert!(signal.is_requested());
        assert!(waiter.join().expect("waiter thread panicked"));
        // Already-requested waits return immediately.
        assert!(signal.wait_timeout(Duration::ZERO));
    }
}
