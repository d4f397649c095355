//! The caller's handle on an admitted request.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tcim_service::QueryResponse;

use crate::error::GatewayError;

type Outcome = std::result::Result<QueryResponse, GatewayError>;

struct TicketInner {
    slot: Mutex<Option<Outcome>>,
    ready: Condvar,
}

/// A claim check for one admitted request: block on [`Ticket::wait`]
/// (or [`Ticket::wait_timeout`]) for the response. Clones share the
/// same slot; the outcome is taken by whichever handle claims it
/// first.
#[derive(Clone)]
pub struct Ticket {
    inner: Arc<TicketInner>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.inner.slot.lock().expect("ticket lock is never poisoned").is_some();
        write!(f, "Ticket(ready={filled})")
    }
}

impl Ticket {
    pub(crate) fn new() -> Ticket {
        Ticket {
            inner: Arc::new(TicketInner { slot: Mutex::new(None), ready: Condvar::new() }),
        }
    }

    pub(crate) fn fulfill(&self, outcome: Outcome) {
        let mut slot = self.inner.slot.lock().expect("ticket lock is never poisoned");
        if slot.is_none() {
            *slot = Some(outcome);
            self.inner.ready.notify_all();
        }
    }

    /// Blocks until the request is answered (or shed) and returns the
    /// outcome.
    pub fn wait(&self) -> Outcome {
        let mut slot = self.inner.slot.lock().expect("ticket lock is never poisoned");
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self.inner.ready.wait(slot).expect("ticket lock is never poisoned");
        }
    }

    /// As [`Ticket::wait`] with a bound: `None` if the outcome did not
    /// arrive within `timeout`.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        let mut slot = self.inner.slot.lock().expect("ticket lock is never poisoned");
        loop {
            if let Some(outcome) = slot.take() {
                return Some(outcome);
            }
            let (guard, waited) = self
                .inner
                .ready
                .wait_timeout(slot, timeout)
                .expect("ticket lock is never poisoned");
            slot = guard;
            if waited.timed_out() {
                return slot.take();
            }
        }
    }
}
