//! Cooperative cancellation and deadlines for long-running compute paths.
//!
//! A [`CancelToken`] is a cheap, cloneable handle around an `Arc` of two
//! atomics — a cancel flag and a deadline expressed in nanoseconds past the
//! token's creation instant. Every clone shares both, so a request and the
//! workers it fans out to fire together.
//!
//! Engines poll [`CancelToken::check`] at their natural work boundaries
//! (chunk hand-out, pattern block, BDD gate build, sweep node, estimator
//! tier). A fired check returns the typed [`Cancelled`] payload — how long
//! the work had been running and which check site noticed — which the
//! `relogic` error ladder surfaces verbatim so callers can tell "cancelled
//! after 52 ms in the sweep loop" from an ordinary failure.
//!
//! The determinism contract: cancellation checks are *read-only
//! early-exits*. Work that runs to completion under a deadline performs
//! exactly the same arithmetic, in the same merge order, as work run with
//! no token at all — a completed run is bit-identical either way. A token
//! only ever changes *whether* an answer is produced, never the answer.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel deadline meaning "none": the token never expires on its own.
const NO_DEADLINE: u64 = u64::MAX;

#[derive(Debug)]
struct TokenInner {
    /// Explicit cancellation (disconnect, drain, user abort).
    cancelled: AtomicBool,
    /// Deadline in nanoseconds after `epoch`; [`NO_DEADLINE`] when unset.
    deadline_nanos: AtomicU64,
    /// Creation instant; all deadline math is relative to this.
    epoch: Instant,
}

impl TokenInner {
    fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        let deadline = self.deadline_nanos.load(Ordering::Relaxed);
        deadline != NO_DEADLINE && Self::nanos(self.epoch.elapsed()) >= deadline
    }

    /// Saturating `Duration` → nanos; ~584 years before saturation.
    fn nanos(d: Duration) -> u64 {
        u64::try_from(d.as_nanos()).unwrap_or(NO_DEADLINE - 1)
    }
}

/// A cloneable cancellation handle shared by a request and its workers.
///
/// Clones share state: cancelling any clone cancels them all, and a
/// deadline set through one clone applies to every clone.
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token that never fires on its own (no deadline, not cancelled).
    ///
    /// This is the "no deadline" object threaded through the legacy entry
    /// points; its `is_cancelled` costs two relaxed loads and a compare.
    #[must_use]
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline_nanos: AtomicU64::new(NO_DEADLINE),
                epoch: Instant::now(),
            }),
        }
    }

    /// A token that expires `deadline` after this call.
    #[must_use]
    pub fn with_deadline(deadline: Duration) -> Self {
        let token = Self::new();
        token.set_deadline(deadline);
        token
    }

    /// Arms (or re-arms) the deadline to fire `deadline` from *now*.
    pub fn set_deadline(&self, deadline: Duration) {
        let fire_at = TokenInner::nanos(self.inner.epoch.elapsed())
            .saturating_add(TokenInner::nanos(deadline))
            .min(NO_DEADLINE - 1);
        self.inner.deadline_nanos.store(fire_at, Ordering::Relaxed);
    }

    /// Fires the token: every clone is cancelled.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired, explicitly or by its deadline. Cheap
    /// enough for per-chunk / per-gate polling.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// Whether the token was fired by an explicit [`CancelToken::cancel`]
    /// call, as opposed to a deadline expiry.
    /// Lets a caller that cancels for different reasons (client
    /// disconnect, graceful drain) label the outcome accordingly.
    #[must_use]
    pub fn was_cancelled_explicitly(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Time since the token was created — the `after` half of a
    /// [`Cancelled`] payload.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.inner.epoch.elapsed()
    }

    /// Polls the token; returns the typed payload if it has fired.
    ///
    /// `checked_at` names the check site (a static label like
    /// `"tape_chunk"` or `"bdd_gate"`) so the error says where the work was
    /// interrupted.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token has fired.
    pub fn check(&self, checked_at: &'static str) -> Result<(), Cancelled> {
        if self.is_cancelled() {
            Err(Cancelled {
                after: self.elapsed(),
                checked_at,
            })
        } else {
            Ok(())
        }
    }
}

/// Typed payload of a cancelled computation: never a partial result, never
/// a panic — the work unwound cleanly at a check site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled {
    /// How long the work had been running when the check fired.
    pub after: Duration,
    /// The check site that noticed (static label, one per engine loop).
    pub checked_at: &'static str,
}

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cancelled after {} ms (at {})",
            self.after.as_millis(),
            self.checked_at
        )
    }
}

impl Error for Cancelled {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_never_fires() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check("site").is_ok());
    }

    #[test]
    fn cancel_fires_all_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        let err = match t.check("mc_chunk") {
            Err(e) => e,
            Ok(()) => panic!("expected a fired token"),
        };
        assert_eq!(err.checked_at, "mc_chunk");
        assert!(err.to_string().contains("mc_chunk"), "{err}");
    }

    #[test]
    fn deadline_fires_after_elapse() {
        let t = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(t.is_cancelled());
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn only_cancel_counts_as_explicit() {
        let expired = CancelToken::with_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(expired.is_cancelled());
        assert!(
            !expired.was_cancelled_explicitly(),
            "a deadline expiry is not an explicit cancel"
        );

        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.was_cancelled_explicitly());
        clone.cancel();
        for token in [&t, &clone] {
            assert!(token.is_cancelled());
            assert!(token.was_cancelled_explicitly());
        }
    }

    #[test]
    fn token_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CancelToken>();
        assert_send_sync::<Cancelled>();
    }
}
