//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the [`channel`] subset the live runtime uses: multi-producer
//! channels with cloneable senders, `recv_timeout`, and disconnect
//! detection, implemented over a `Mutex<VecDeque>` + `Condvar`. Not a
//! lock-free queue — throughput is not the point here; identical
//! semantics under the runtime's usage pattern is.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        recv_ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T: Send> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(PartialEq, Eq, Clone, Copy, Debug)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// All senders disconnected and the queue is drained.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.shared.recv_ready.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> Sender<T> {
        /// Sends `msg`; never blocks.
        ///
        /// Returns the message back if every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut queue = self.shared.queue.lock().unwrap();
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(msg));
            }
            queue.push_back(msg);
            drop(queue);
            self.shared.recv_ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message, waiting at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut queue = self.shared.queue.lock().unwrap();
            loop {
                if let Some(msg) = queue.pop_front() {
                    return Ok(msg);
                }
                if self.shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (q, res) = self
                    .shared
                    .recv_ready
                    .wait_timeout(queue, deadline - now)
                    .unwrap();
                queue = q;
                if res.timed_out() && queue.is_empty() {
                    if self.shared.senders.load(Ordering::SeqCst) == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }
    }

    /// Creates a channel of unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            recv_ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// Generous bound for receives that must succeed.
        const SOON: Duration = Duration::from_secs(5);

        #[test]
        fn fifo_per_sender() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            let got: Vec<i32> = (0..10).map(|_| rx.recv_timeout(SOON).unwrap()).collect();
            assert_eq!(got, (0..10).collect::<Vec<_>>());
        }

        #[test]
        fn timeout_then_delivery() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(7).unwrap();
            });
            assert_eq!(rx.recv_timeout(SOON), Ok(7));
            t.join().unwrap();
        }

        #[test]
        fn disconnect_detected() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv_timeout(SOON), Ok(1));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn send_to_dropped_receiver_errors() {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert_eq!(tx.send(3), Err(SendError(3)));
        }

        #[test]
        fn cloned_receivers_share_stream() {
            let (tx, rx1) = unbounded::<u32>();
            let rx2 = rx1.clone();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let a = rx1.recv_timeout(SOON).unwrap();
            let b = rx2.recv_timeout(SOON).unwrap();
            let mut got = vec![a, b];
            got.sort_unstable();
            assert_eq!(got, vec![1, 2]);
        }
    }
}
