//! A small bounded MPMC queue for raw-unit hand-out.
//!
//! `std::sync::mpsc` channels are single-consumer, so the parallel
//! executor's fan-out (one reader thread, N decode workers) needs its own
//! queue. This one is deliberately minimal: `Mutex<VecDeque>` plus two
//! condvars, blocking `push`/`pop`, and a `close` used both for normal
//! end-of-stream and for unwinding consumers (a closed queue never blocks
//! a producer, so a panicking worker cannot deadlock the reader thread).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Bounded multi-producer / multi-consumer queue.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `item`, blocking while the queue is full. Returns `false`
    /// (dropping the item) if the queue was closed — the producer should
    /// wind down.
    pub fn push(&self, item: T) -> bool {
        let mut state = self.inner.lock().expect("queue poisoned");
        while state.items.len() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).expect("queue poisoned");
        }
        if state.closed {
            return false;
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        true
    }

    /// Dequeues the oldest item, blocking while the queue is empty and
    /// open. Returns `None` once the queue is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
    }

    /// Number of items currently buffered. A racy snapshot — only for
    /// observability (the `queue.depth` trace gauge), never for logic.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Closes the queue: pending items can still be popped, further
    /// pushes are rejected, and every blocked thread wakes up.
    pub fn close(&self) {
        let mut state = self.inner.lock().expect("queue poisoned");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Closes the queue on drop — including during a panic unwind, so a dying
/// consumer never leaves a producer blocked on a full queue (or vice
/// versa).
#[derive(Debug)]
pub(crate) struct CloseOnDrop<'a, T>(pub &'a BoundedQueue<T>);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_close() {
        let q = BoundedQueue::new(4);
        assert_eq!(q.len(), 0);
        assert!(q.push(1));
        assert!(q.push(2));
        assert_eq!(q.len(), 2);
        q.close();
        assert!(!q.push(3), "pushes after close are rejected");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_handoff_across_threads() {
        let q = Arc::new(BoundedQueue::new(2));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..100u32 {
                    assert!(q.push(i));
                }
                q.close();
            })
        };
        let mut seen = Vec::new();
        while let Some(i) = q.pop() {
            seen.push(i);
        }
        producer.join().unwrap();
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(seen, expect, "single consumer sees FIFO order");
    }

    #[test]
    fn close_guard_unblocks_producer() {
        let q = Arc::new(BoundedQueue::new(1));
        assert!(q.push(0));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1)) // blocks: queue is full
        };
        {
            let _guard = CloseOnDrop(&*q);
        } // guard drops, closing the queue
        assert!(!producer.join().unwrap(), "blocked push returns false");
    }
}
