//! Cooperative cancellation tokens with thread-local installation.
//!
//! A [`CancelToken`] is a shared flag plus the *reason* it was tripped
//! (external request or deadline). The batch runner installs the current
//! job's token into a thread-local before running the job body, so deep
//! algorithm loops — the Φ binary search in `turbomap::driver`, the
//! FRTcheck sweep loop — can poll [`cancelled`] without every function in
//! between carrying a token parameter.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

const LIVE: u8 = 0;
const EXTERNAL: u8 = 1;
const DEADLINE: u8 = 2;

/// Why a token was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// An explicit [`CancelToken::cancel`] call.
    External,
    /// The batch watchdog fired the job's deadline.
    Deadline,
}

/// A shared, cheaply clonable cancellation flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
}

impl CancelToken {
    /// Creates a live (uncancelled) token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token with [`CancelReason::External`].
    pub fn cancel(&self) {
        let _ = self
            .state
            .compare_exchange(LIVE, EXTERNAL, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Trips the token with [`CancelReason::Deadline`] (used by the batch
    /// watchdog; the first trip wins).
    pub fn cancel_deadline(&self) {
        let _ = self
            .state
            .compare_exchange(LIVE, DEADLINE, Ordering::AcqRel, Ordering::Acquire);
    }

    /// True when the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::Acquire) != LIVE
    }

    /// True when `other` is a clone of this token.
    pub(crate) fn same(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }

    /// The reason the token was tripped, if it was.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.state.load(Ordering::Acquire) {
            EXTERNAL => Some(CancelReason::External),
            DEADLINE => Some(CancelReason::Deadline),
            _ => None,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Installs `token` as the current thread's token for the lifetime of the
/// returned guard (the previous token is restored on drop).
pub fn install(token: CancelToken) -> InstallGuard {
    let prev = CURRENT.with(|c| c.replace(Some(token)));
    InstallGuard { prev }
}

/// RAII guard returned by [`install`].
#[derive(Debug)]
pub struct InstallGuard {
    prev: Option<CancelToken>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// True when the current thread's installed token (if any) is tripped.
///
/// Cheap enough for per-sweep polling: one thread-local read and one
/// atomic load; returns `false` when no token is installed.
pub fn cancelled() -> bool {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(CancelToken::is_cancelled)
            .unwrap_or(false)
    })
}

/// The currently installed token's trip reason, if any.
pub fn current_reason() -> Option<CancelReason> {
    CURRENT.with(|c| c.borrow().as_ref().and_then(CancelToken::reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_trips_once_with_first_reason() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        t.cancel_deadline();
        t.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn install_is_scoped_and_nested() {
        assert!(!cancelled());
        let outer = CancelToken::new();
        let _g1 = install(outer.clone());
        assert!(!cancelled());
        {
            let inner = CancelToken::new();
            let _g2 = install(inner.clone());
            inner.cancel();
            assert!(cancelled());
            assert_eq!(current_reason(), Some(CancelReason::External));
        }
        // Inner guard dropped: back to the (live) outer token.
        assert!(!cancelled());
        outer.cancel();
        assert!(cancelled());
    }

    #[test]
    fn no_token_means_not_cancelled() {
        assert!(!cancelled());
        assert_eq!(current_reason(), None);
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled());
    }
}
