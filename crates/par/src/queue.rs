//! A bounded multi-producer multi-consumer queue.
//!
//! The admission-control primitive for the service layer: producers
//! *never block* — [`BoundedQueue::try_push`] rejects deterministically
//! with a typed error when the queue is full (backpressure) or closed
//! (shutdown) — while consumers block on [`BoundedQueue::pop`] until an
//! item arrives or the queue is closed *and* drained. Built on
//! `Mutex` + `Condvar` only, like everything in this crate.
//!
//! Poisoning: the guarded state is a plain `VecDeque` plus two flags,
//! valid after any partial mutation, so a panicking producer or consumer
//! must not brick the queue for everyone else — all lock acquisitions
//! recover from poison.
//!
//! ```
//! use mpvl_par::{BoundedQueue, PushError};
//! let q = BoundedQueue::new(2);
//! q.try_push(1).unwrap();
//! q.try_push(2).unwrap();
//! assert!(matches!(q.try_push(3), Err(PushError::Full(3))));
//! q.close();
//! assert!(matches!(q.try_push(4), Err(PushError::Closed(4))));
//! assert_eq!(q.pop(), Some(1)); // closed queues still drain
//! assert_eq!(q.pop(), Some(2));
//! assert_eq!(q.pop(), None); // closed and empty
//! ```

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a [`BoundedQueue::try_push`] was rejected; the item is handed
/// back so the caller can report or retry it.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue holds `capacity` items — backpressure; try again after
    /// a consumer makes room, or reject the work upstream.
    Full(T),
    /// [`BoundedQueue::close`] was called — the queue drains but accepts
    /// nothing new.
    Closed(T),
}

impl<T> PushError<T> {
    /// The rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with non-blocking producers and blocking
/// consumers: [`BoundedQueue::try_push`] rejects with a typed error when
/// the queue is full or closed, and [`BoundedQueue::pop`] waits until an
/// item arrives or the queue is closed and drained. Every lock
/// acquisition recovers from poison.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    /// Signalled on push and on close (wakes blocked consumers), and on
    /// pop (wakes [`BoundedQueue::wait_empty`] waiters).
    changed: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (raised to 1 if
    /// zero — a queue that can hold nothing would deadlock its users).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // The state is valid-by-construction after any partial mutation;
        // recover rather than propagating poison to every later caller.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The capacity the queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Enqueues `item` without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when `len() == capacity` (deterministic
    /// backpressure — nothing waits, nothing reorders), and
    /// [`PushError::Closed`] after [`BoundedQueue::close`]. Both hand
    /// the item back.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut s = self.lock();
        if s.closed {
            return Err(PushError::Closed(item));
        }
        if s.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        s.items.push_back(item);
        drop(s);
        self.changed.notify_all();
        Ok(())
    }

    /// Dequeues without blocking; `None` when nothing is queued (closed
    /// or not).
    pub fn try_pop(&self) -> Option<T> {
        let popped = self.lock().items.pop_front();
        if popped.is_some() {
            self.changed.notify_all();
        }
        popped
    }

    /// Dequeues, blocking until an item arrives; `None` once the queue
    /// is closed **and** drained (consumers see every item pushed before
    /// the close).
    pub fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.changed.notify_all();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.changed.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: producers are rejected from now on, consumers
    /// drain what is left and then get `None`. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    /// Blocks until the queue is empty — the graceful-drain barrier:
    /// [`BoundedQueue::close`] then `wait_empty` guarantees every
    /// admitted item was consumed (or the queue was already empty).
    pub fn wait_empty(&self) {
        let mut s = self.lock();
        while !s.items.is_empty() {
            s = self.changed.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.try_push(9), Err(PushError::Full(9)));
        assert_eq!(
            (0..4).map(|_| q.try_pop().unwrap()).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn zero_capacity_is_raised_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(7u8).unwrap();
        assert_eq!(q.try_push(8), Err(PushError::Full(8)));
    }

    #[test]
    fn close_rejects_producers_and_drains_consumers() {
        let q = BoundedQueue::new(8);
        q.try_push("a").unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push("b"), Err(PushError::Closed("b")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None, "closed and drained");
        assert_eq!(PushError::Closed("b").into_inner(), "b");
    }

    #[test]
    fn blocking_pop_wakes_on_push_and_close() {
        let q = BoundedQueue::new(2);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            });
            for i in 0..50u32 {
                // Spin until accepted: capacity 2 forces real backpressure.
                let mut item = i;
                loop {
                    match q.try_push(item) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => {
                            item = back;
                            std::thread::yield_now();
                        }
                        Err(PushError::Closed(_)) => unreachable!(),
                    }
                }
            }
            q.close();
            let got = consumer.join().unwrap();
            assert_eq!(got, (0..50).collect::<Vec<_>>());
        });
    }

    #[test]
    fn wait_empty_is_a_drain_barrier() {
        let q = BoundedQueue::new(16);
        for i in 0..16u32 {
            q.try_push(i).unwrap();
        }
        q.close();
        std::thread::scope(|scope| {
            scope.spawn(|| while q.pop().is_some() {});
            q.wait_empty();
            assert!(q.is_empty());
        });
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = BoundedQueue::new(4);
        let total = std::sync::atomic::AtomicU64::new(0);
        let expected: u64 = (0..2u64)
            .flat_map(|p| (0..100u64).map(move |i| p * 1000 + i))
            .sum();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut sum = 0u64;
                    while let Some(v) = q.pop() {
                        sum += u64::from(v);
                    }
                    total.fetch_add(sum, std::sync::atomic::Ordering::Relaxed);
                });
            }
            let producers: Vec<_> = (0..2u32)
                .map(|p| {
                    let q = &q;
                    scope.spawn(move || {
                        for i in 0..100u32 {
                            let mut item = p * 1000 + i;
                            loop {
                                match q.try_push(item) {
                                    Ok(()) => break,
                                    Err(PushError::Full(back)) => {
                                        item = back;
                                        std::thread::yield_now();
                                    }
                                    Err(PushError::Closed(_)) => unreachable!(),
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in producers {
                h.join().unwrap();
            }
            q.close(); // consumers drain the tail, then exit
        });
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), expected);
    }
}
