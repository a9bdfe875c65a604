//! Offline stand-in for the `crossbeam` crate.
//!
//! Only [`channel`] is provided — the piece the in-process transport uses.
//! Unlike `std::sync::mpsc`, crossbeam's bounded and unbounded channels
//! share one `Sender`/`Receiver` type and senders are freely cloneable,
//! which is what the transport registry stores; this shim reproduces that
//! shape over a `Mutex<VecDeque>` + two condvars.

#![forbid(unsafe_code)]

/// Multi-producer channels with unified bounded/unbounded endpoints.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver_alive: bool,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        /// Capacity bound; `None` = unbounded.
        cap: Option<usize>,
        /// Signalled when an item arrives or all senders drop.
        items: Condvar,
        /// Signalled when space frees up or the receiver drops.
        space: Condvar,
    }

    /// An unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// A bounded FIFO channel; `send` blocks while `cap` items are queued.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap))
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receiver_alive: true,
            }),
            cap,
            items: Condvar::new(),
            space: Condvar::new(),
        });
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> Sender<T> {
        /// Sends `msg`, blocking while a bounded channel is full.
        ///
        /// # Errors
        ///
        /// Returns the message back if the receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.inner.state.lock().expect("channel lock");
            loop {
                if !st.receiver_alive {
                    return Err(SendError(msg));
                }
                match self.inner.cap {
                    Some(cap) if st.queue.len() >= cap => {
                        st = self.inner.space.wait(st).expect("channel lock");
                    }
                    _ => break,
                }
            }
            st.queue.push_back(msg);
            drop(st);
            self.inner.items.notify_one();
            Ok(())
        }

        /// Sends without blocking.
        ///
        /// # Errors
        ///
        /// Returns the message back if the channel is full or disconnected.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut st = self.inner.state.lock().expect("channel lock");
            if !st.receiver_alive {
                return Err(TrySendError::Disconnected(msg));
            }
            if let Some(cap) = self.inner.cap {
                if st.queue.len() >= cap {
                    return Err(TrySendError::Full(msg));
                }
            }
            st.queue.push_back(msg);
            drop(st);
            self.inner.items.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().expect("channel lock").senders += 1;
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.inner.state.lock().expect("channel lock");
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.inner.items.notify_all();
            }
        }
    }

    impl<T> core::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    /// The receiving half.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> Receiver<T> {
        /// Receives the next message, blocking until one arrives.
        ///
        /// # Errors
        ///
        /// [`RecvError`] when every sender is gone and the queue is empty.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.inner.state.lock().expect("channel lock");
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    drop(st);
                    self.inner.space.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.inner.items.wait(st).expect("channel lock");
            }
        }

        /// Receives the next message, waiting up to `timeout`.
        ///
        /// # Errors
        ///
        /// `Timeout` if nothing arrives in time, `Disconnected` when every
        /// sender is gone and the queue is empty.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.inner.state.lock().expect("channel lock");
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    drop(st);
                    self.inner.space.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                let Some(remaining) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                let (guard, _result) = self
                    .inner
                    .items
                    .wait_timeout(st, remaining)
                    .expect("channel lock");
                st = guard;
            }
        }

        /// Receives without blocking.
        ///
        /// # Errors
        ///
        /// `Empty` if nothing is queued, `Disconnected` when every sender is
        /// gone and the queue is empty.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.inner.state.lock().expect("channel lock");
            if let Some(msg) = st.queue.pop_front() {
                drop(st);
                self.inner.space.notify_one();
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }
    }

    /// As in crossbeam, the messages still queued are dropped with the
    /// receiver, not when the last sender goes.
    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.inner.state.lock().expect("channel lock");
            st.receiver_alive = false;
            let queued = std::mem::take(&mut st.queue);
            drop(st);
            self.inner.space.notify_all();
            drop(queued);
        }
    }

    impl<T> core::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// The receiver disconnected; the unsent message is returned.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Non-blocking send failure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded channel is at capacity.
        Full(T),
        /// The receiver disconnected.
        Disconnected(T),
    }

    /// Every sender disconnected and the queue is drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Blocking-with-timeout receive failure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with nothing queued.
        Timeout,
        /// Every sender disconnected and the queue is drained.
        Disconnected,
    }

    /// Non-blocking receive failure.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Every sender disconnected and the queue is drained.
        Disconnected,
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn unbounded_fifo_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn cloned_senders_feed_one_receiver() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            std::thread::spawn(move || tx2.send(7).unwrap())
                .join()
                .unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(7));
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn send_to_dropped_receiver_errors() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(5), Err(SendError(5)));
        }

        #[test]
        fn dropping_the_receiver_drops_queued_messages() {
            let (tx, rx) = unbounded();
            let msg = std::sync::Arc::new(());
            tx.send(msg.clone()).unwrap();
            assert_eq!(std::sync::Arc::strong_count(&msg), 2);
            drop(rx);
            assert_eq!(std::sync::Arc::strong_count(&msg), 1, "sender still alive");
        }

        #[test]
        fn recv_timeout_expires() {
            let (tx, rx) = unbounded::<u8>();
            let start = std::time::Instant::now();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(30)),
                Err(RecvTimeoutError::Timeout)
            );
            assert!(start.elapsed() >= Duration::from_millis(25));
            drop(tx);
        }

        #[test]
        fn bounded_blocks_until_drained() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
            let sender = std::thread::spawn(move || tx.send(2).unwrap());
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            sender.join().unwrap();
            assert_eq!(rx.recv(), Ok(2));
        }
    }
}
