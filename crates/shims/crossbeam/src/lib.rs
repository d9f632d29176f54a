//! Offline, API-compatible stand-in for the part of `crossbeam` this
//! workspace uses: bounded MPMC-ish channels ([`channel::bounded`]).
//!
//! Channels are backed by [`std::sync::mpsc::sync_channel`] (bounded,
//! blocking, disconnect-on-drop — the same semantics the serving engine's
//! wake channel relies on).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Bounded blocking channels (mirroring `crossbeam::channel`).
pub mod channel {
    use std::sync::mpsc;

    /// Sending half of a bounded channel; clonable for fan-in.
    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone; the
    /// unsent message is handed back.
    #[derive(Debug)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`] (mirroring
    /// `crossbeam::channel::TrySendError`). Either way the unsent message
    /// is handed back, so a load-shedding caller can fail over (or reject
    /// typed) without losing it.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded buffer is at capacity right now; receivers are
        /// still alive. The admission-control signal: a non-blocking
        /// submitter treats this as "overloaded", not as an error state.
        Full(T),
        /// Every receiver has been dropped; the message can never arrive.
        Disconnected(T),
    }

    impl<T> Sender<T> {
        /// Blocks until the message is enqueued, or returns `Err` if the
        /// receiving side has disconnected.
        ///
        /// # Errors
        /// Returns [`SendError`] carrying `msg` back if every receiver has
        /// been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg).map_err(|mpsc::SendError(m)| SendError(m))
        }

        /// Enqueues the message only if the bounded buffer has room right
        /// now — never blocks. This is the primitive admission-time load
        /// shedding is built on: a full queue is a backpressure signal the
        /// caller can convert into a typed "overloaded" rejection instead
        /// of parking the submitting thread.
        ///
        /// # Errors
        /// [`TrySendError::Full`] when the buffer is at capacity (message
        /// handed back, receivers alive); [`TrySendError::Disconnected`]
        /// when every receiver has been dropped.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            self.0.try_send(msg).map_err(|e| match e {
                mpsc::TrySendError::Full(m) => TrySendError::Full(m),
                mpsc::TrySendError::Disconnected(m) => TrySendError::Disconnected(m),
            })
        }
    }

    /// Error returned by [`Receiver::recv`] when all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`] (mirroring
    /// `crossbeam::channel::TryRecvError`).
    ///
    /// The distinction matters for graceful shutdown: a drain loop must keep
    /// polling on [`TryRecvError::Empty`] (senders alive, nothing queued
    /// *right now*) but may retire on [`TryRecvError::Disconnected`]
    /// (every sender dropped **and** the buffer fully drained — buffered
    /// messages are always handed out before the disconnect is reported,
    /// even when senders drop concurrently from several threads).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is currently buffered; senders still exist.
        Empty,
        /// All senders have been dropped and the buffer is drained.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`] (mirroring
    /// `crossbeam::channel::RecvTimeoutError`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message arriving.
        Timeout,
        /// All senders have been dropped and the buffer is drained.
        Disconnected,
    }

    /// Receiving half of a bounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        /// Blocks until a message arrives, or returns `Err` once the channel
        /// is disconnected and drained.
        ///
        /// # Errors
        /// Returns [`RecvError`] if every sender has been dropped and the
        /// buffer is empty.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|mpsc::RecvError| RecvError)
        }

        /// Returns a buffered message immediately, without blocking.
        ///
        /// # Errors
        /// [`TryRecvError::Empty`] when nothing is queued but senders are
        /// still alive; [`TryRecvError::Disconnected`] only once every
        /// sender has been dropped **and** every buffered message has been
        /// received (real crossbeam's ordering guarantee — see the enum
        /// docs; pinned by this crate's concurrent-drop test).
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// Blocks for at most `timeout` waiting for a message — the
        /// primitive a deadline-aware batching loop is built on.
        ///
        /// # Errors
        /// [`RecvTimeoutError::Timeout`] if the deadline passed with the
        /// channel still connected; [`RecvTimeoutError::Disconnected`] once
        /// every sender has been dropped and the buffer is drained.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Iterates messages until the channel disconnects.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            self.0.iter()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = mpsc::IntoIter<T>;

        fn into_iter(self) -> Self::IntoIter {
            self.0.into_iter()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = mpsc::Iter<'a, T>;

        fn into_iter(self) -> Self::IntoIter {
            self.0.iter()
        }
    }

    /// Creates a channel holding at most `cap` in-flight messages.
    #[must_use]
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(rx))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::bounded;

    #[test]
    fn channel_roundtrip_in_order() {
        let (tx, rx) = bounded::<usize>(2);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for i in 0..10 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<usize> = rx.into_iter().collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn send_fails_after_receiver_drops() {
        let (tx, rx) = bounded::<u8>(1);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_fails_after_senders_drop() {
        let (tx, rx) = bounded::<u8>(1);
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn try_recv_distinguishes_empty_from_disconnected() {
        use super::channel::TryRecvError;
        let (tx, rx) = bounded::<u8>(2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv(), Ok(9));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        // A buffered message must be delivered before the disconnect is
        // reported, even though the sender is already gone.
        tx.send(11).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(11));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn try_send_distinguishes_full_from_disconnected() {
        use super::channel::TrySendError;
        let (tx, rx) = bounded::<u8>(1);
        // Room in the buffer: accepted without blocking.
        assert_eq!(tx.try_send(1), Ok(()));
        // Buffer at capacity, receiver alive: Full hands the message back.
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        // Draining frees the slot; the channel is usable again.
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        assert_eq!(rx.try_recv(), Ok(3));
        // Receiver gone: Disconnected, regardless of buffer space.
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    #[test]
    fn recv_timeout_times_out_and_detects_disconnect() {
        use super::channel::RecvTimeoutError;
        use std::time::Duration;
        let (tx, rx) = bounded::<u8>(1);
        // Nothing queued, sender alive: timeout.
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        // Queued message: delivered well within the deadline.
        tx.send(3).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Ok(3));
        // Sender gone, buffer empty: disconnect, not timeout.
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(100)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_timeout_wakes_on_late_arrival() {
        use std::time::Duration;
        let (tx, rx) = bounded::<u8>(1);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(42).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(42));
        });
    }

    #[test]
    fn concurrent_sender_drops_never_lose_messages() {
        // The graceful-shutdown contract: several senders, each sending a
        // burst and dropping at its own time from its own thread, racing
        // the receiver's drain loop. Every sent message must be delivered
        // before any disconnect is reported — a `Disconnected` with
        // messages still buffered would make a serving engine drop
        // in-flight requests on shutdown.
        use super::channel::TryRecvError;
        const SENDERS: usize = 4;
        const PER_SENDER: usize = 100;
        let (tx, rx) = bounded::<usize>(8);
        let mut got = vec![0usize; SENDERS * PER_SENDER];
        std::thread::scope(|scope| {
            for s in 0..SENDERS {
                let tx = tx.clone();
                scope.spawn(move || {
                    for i in 0..PER_SENDER {
                        tx.send(s * PER_SENDER + i).unwrap();
                    }
                    // tx drops here, concurrently with its siblings.
                });
            }
            drop(tx);
            // Drain with the non-blocking primitive the engine's batcher
            // uses, spinning on Empty (senders still alive) and stopping
            // only on a true disconnect.
            loop {
                match rx.try_recv() {
                    Ok(v) => got[v] += 1,
                    Err(TryRecvError::Empty) => std::thread::yield_now(),
                    Err(TryRecvError::Disconnected) => break,
                }
            }
        });
        assert!(
            got.iter().all(|&c| c == 1),
            "every message delivered exactly once, none lost at disconnect"
        );
        // And the channel stays disconnected afterwards.
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn iteration_ends_only_after_buffer_drains_under_concurrent_drops() {
        // Same contract through the blocking iterator surface: `iter()`
        // must yield every message from every sender before terminating,
        // with all senders dropping concurrently.
        const SENDERS: usize = 3;
        const PER_SENDER: usize = 50;
        let (tx, rx) = bounded::<usize>(4);
        let mut seen = [false; SENDERS * PER_SENDER];
        std::thread::scope(|scope| {
            for s in 0..SENDERS {
                let tx = tx.clone();
                scope.spawn(move || {
                    for i in 0..PER_SENDER {
                        tx.send(s * PER_SENDER + i).unwrap();
                    }
                });
            }
            drop(tx);
            for v in rx.iter() {
                assert!(!seen[v], "duplicate delivery of {v}");
                seen[v] = true;
            }
        });
        assert!(seen.iter().all(|&s| s), "iterator ended before draining");
    }
}
