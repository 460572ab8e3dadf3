//! The bounded queue between an HTTP accept path and a worker pool —
//! the shard's jobs waiting for workers, the dispatcher's waiting for
//! forwarders.
//!
//! A plain `Mutex<VecDeque>` + `Condvar` MPMC queue. Submissions never
//! block: when the queue is full, [`BoundedQueue::push`] fails
//! immediately and the HTTP layer turns that into `503` backpressure —
//! the client, not the server, holds the retry state. Workers block in
//! [`BoundedQueue::pop`] until an item or shutdown arrives; after
//! [`BoundedQueue::close`] they drain what is already queued and then
//! see `None`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity — backpressure, try again later.
    Full,
    /// The server is shutting down.
    Closed,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    ready: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` pending items.
    pub(crate) fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity,
            ready: Condvar::new(),
        }
    }

    /// Enqueues without blocking; fails when full or closed.
    pub(crate) fn push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the queue is closed **and**
    /// drained; `None` tells a worker to exit.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Current number of pending items.
    pub(crate) fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").items.len()
    }

    /// The configured bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Marks the queue closed and wakes every waiting worker. Already
    /// queued items still drain.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("queue lock poisoned").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_with_backpressure() {
        let queue = BoundedQueue::new(2);
        assert_eq!(queue.capacity(), 2);
        queue.push(1).unwrap();
        queue.push(2).unwrap();
        assert_eq!(queue.push(3).unwrap_err(), PushError::Full);
        assert_eq!(queue.depth(), 2);
        assert_eq!(queue.pop(), Some(1));
        queue.push(3).unwrap();
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_stops() {
        let queue = BoundedQueue::new(4);
        queue.push(1).unwrap();
        queue.close();
        assert_eq!(queue.push(2).unwrap_err(), PushError::Closed);
        assert_eq!(queue.pop(), Some(1));
        assert!(queue.pop().is_none());
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let queue = std::sync::Arc::new(BoundedQueue::<u64>::new(1));
        let waiter = {
            let queue = queue.clone();
            std::thread::spawn(move || queue.pop())
        };
        // Give the waiter a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        queue.close();
        assert!(waiter.join().unwrap().is_none());
    }
}
