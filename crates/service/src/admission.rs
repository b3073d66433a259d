//! Admission control: a bounded count of in-flight requests.
//!
//! The gate is a count and a closed flag under one `Mutex`, plus a
//! `Condvar` that [`Admission::drain`] waits on. Entering never blocks:
//! a request over the bound is rejected at once with
//! [`ServiceError::Overloaded`], and every request after
//! [`Admission::drain`] has closed the gate with
//! [`ServiceError::ShuttingDown`] — closed wins over full. The state is
//! valid after any partial update, so every acquisition recovers from
//! poison via [`relock`].

use crate::error::ServiceError;
use crate::service::relock;
use std::sync::{Condvar, Mutex, PoisonError};

struct Gate {
    in_flight: usize,
    closed: bool,
}

pub(crate) struct Admission {
    capacity: usize,
    gate: Mutex<Gate>,
    /// Signalled when the last ticket drops; wakes [`Admission::drain`].
    idle: Condvar,
}

/// One slot of the in-flight bound, released on drop — also when its
/// holder unwinds.
pub(crate) struct Ticket<'a>(&'a Admission);

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        let mut gate = relock(&self.0.gate);
        gate.in_flight -= 1;
        if gate.in_flight == 0 {
            self.0.idle.notify_all();
        }
    }
}

impl Admission {
    /// A gate admitting at most `capacity` requests at once (raised to 1
    /// if zero: a gate that admits nothing would refuse every request).
    pub(crate) fn new(capacity: usize) -> Self {
        Admission {
            capacity: capacity.max(1),
            gate: Mutex::new(Gate {
                in_flight: 0,
                closed: false,
            }),
            idle: Condvar::new(),
        }
    }

    /// Takes a ticket without blocking.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShuttingDown`] once the gate is closed, else
    /// [`ServiceError::Overloaded`] when `capacity` tickets are out.
    pub(crate) fn try_enter(&self) -> Result<Ticket<'_>, ServiceError> {
        let mut gate = relock(&self.gate);
        if gate.closed {
            return Err(ServiceError::ShuttingDown);
        }
        if gate.in_flight >= self.capacity {
            return Err(ServiceError::Overloaded {
                capacity: self.capacity,
            });
        }
        gate.in_flight += 1;
        Ok(Ticket(self))
    }

    /// Tickets out right now.
    pub(crate) fn in_flight(&self) -> usize {
        relock(&self.gate).in_flight
    }

    /// Closes the gate, then blocks until the last ticket drops.
    /// Idempotent.
    pub(crate) fn drain(&self) {
        let mut gate = relock(&self.gate);
        gate.closed = true;
        while gate.in_flight > 0 {
            gate = self.idle.wait(gate).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;

    #[test]
    fn capacity_bounds_the_tickets_out() {
        let gate = Admission::new(2);
        let a = gate.try_enter().unwrap();
        let _b = gate.try_enter().unwrap();
        assert_eq!(gate.in_flight(), 2);
        assert!(matches!(
            gate.try_enter(),
            Err(ServiceError::Overloaded { capacity: 2 })
        ));
        drop(a);
        assert_eq!(gate.in_flight(), 1);
        assert!(gate.try_enter().is_ok(), "a dropped ticket frees its slot");
    }

    #[test]
    fn zero_capacity_is_raised_to_one() {
        let gate = Admission::new(0);
        let _t = gate.try_enter().unwrap();
        assert!(matches!(
            gate.try_enter(),
            Err(ServiceError::Overloaded { capacity: 1 })
        ));
    }

    #[test]
    fn closed_wins_over_full() {
        let gate = Admission::new(1);
        let t = gate.try_enter().unwrap();
        std::thread::scope(|s| {
            let drainer = s.spawn(|| gate.drain());
            // Full until the drainer closes the gate; then closed *and*
            // full, and the refusal says shutting down.
            while !matches!(gate.try_enter(), Err(ServiceError::ShuttingDown)) {
                std::thread::yield_now();
            }
            assert_eq!(gate.in_flight(), 1, "still full while closed");
            drop(t);
            drainer.join().unwrap();
        });
        // Closed and empty: still refused as shutting down.
        for _ in 0..3 {
            assert_eq!(gate.try_enter().err(), Some(ServiceError::ShuttingDown));
        }
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn a_ticket_is_released_when_its_holder_panics() {
        let gate = Admission::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _t = gate.try_enter().unwrap();
            panic!("holder panics with its ticket");
        }));
        assert!(caught.is_err());
        assert_eq!(gate.in_flight(), 0);
        assert!(gate.try_enter().is_ok());
    }

    #[test]
    fn drain_returns_only_after_the_last_ticket_drops() {
        let gate = Admission::new(4);
        let first = gate.try_enter().unwrap();
        let last = gate.try_enter().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.drain();
                done_tx.send(gate.in_flight()).unwrap();
            });
            // Handshake: `drain` closes the gate before it waits, so a
            // refusal as shutting down means the drainer has started.
            while !matches!(gate.try_enter(), Err(ServiceError::ShuttingDown)) {
                std::thread::yield_now();
            }
            drop(first);
            assert!(
                done_rx.try_recv().is_err(),
                "drain returned with a ticket still out"
            );
            drop(last);
            assert_eq!(
                done_rx.recv().unwrap(),
                0,
                "drain returned before the last drop"
            );
        });
    }
}
