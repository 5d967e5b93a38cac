//! Stand-in for the part of `crossbeam` 0.8 this repository uses, over
//! the standard library: `channel` wraps `std::sync::mpsc` (whose
//! implementation has been a port of crossbeam-channel since Rust 1.67,
//! so queue costs are comparable), and `thread::scope` wraps
//! `std::thread::scope`.

/// Unbounded MPSC channels with crossbeam's names.
pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// The sending half; clone freely.
    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Enqueue `msg`; fails only when the receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg)
        }
    }

    /// The receiving half (single consumer, which is all the repository
    /// needs).
    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Block until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        /// A queued message, if any, without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        /// Block for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }
    }

    /// A channel of unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }
}

/// Scoped threads with crossbeam's calling convention.
pub mod thread {
    use std::any::Any;

    /// Handle passed to the scope body and to every spawned closure.
    #[derive(Clone, Copy)]
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Join handle of one scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Wait for the thread; `Err` carries its panic payload.
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread that may borrow from the enclosing scope.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let scope = *self;
            ScopedJoinHandle {
                inner: self.inner.spawn(move || f(&scope)),
            }
        }
    }

    /// Run `f` with a scope; every thread it spawns is joined before
    /// this returns. A panic in an unjoined thread propagates (the
    /// standard library's behaviour) instead of coming back as `Err`,
    /// which the repository treats as fatal either way.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn channel_round_trip_and_disconnect() {
        let (tx, rx) = super::channel::unbounded();
        tx.clone().send(1u32).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.try_recv().unwrap(), 2);
        assert!(rx.try_recv().is_err());
        drop(tx);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn scoped_threads_borrow_and_join() {
        let data = vec![1u64, 2, 3];
        let total = super::thread::scope(|scope| {
            let handles: Vec<_> = data.iter().map(|v| scope.spawn(move |_| *v * 2)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
        .unwrap();
        assert_eq!(total, 12);
    }
}
