//! Minimal offline stand-in for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel::{bounded, unbounded}` with the semantics
//! the compute runtime and consumer proxy rely on: multi-producer
//! multi-consumer, cloneable receivers (work-stealing fan-out), and
//! bounded channels whose full buffer blocks the sender — the
//! credit-based backpressure the staged runtime models — or, through
//! `try_send`, hands the message back.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`]: the message comes back.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// A bounded channel's buffer is full.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Bounded MPMC channel; `send` blocks while the buffer holds
    /// `capacity` messages.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(capacity.max(1)))
    }

    /// Unbounded MPMC channel; `send` never blocks.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.state.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.shared.capacity {
                    Some(cap) if st.queue.len() >= cap => {
                        st = self.shared.not_full.wait(st).unwrap();
                    }
                    _ => break,
                }
            }
            st.queue.push_back(value);
            drop(st);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Send without blocking: a full buffer gives the message back.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut st = self.shared.state.lock().unwrap();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if self
                .shared
                .capacity
                .is_some_and(|cap| st.queue.len() >= cap)
            {
                return Err(TrySendError::Full(value));
            }
            st.queue.push_back(value);
            drop(st);
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Messages currently queued (the sender-side view of channel
        /// depth — a backpressure/saturation signal).
        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().senders += 1;
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                // wake receivers blocked on an empty queue so they observe
                // disconnection
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.state.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.shared.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.not_empty.wait(st).unwrap();
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.shared.state.lock().unwrap();
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Ok(v);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().receivers += 1;
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.shared.state.lock().unwrap();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                // wake senders blocked on a full queue so they observe
                // disconnection
                self.shared.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn unbounded_fan_out_drains_everything() {
        let (tx, rx) = channel::unbounded::<u32>();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let total = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    s.spawn(move || {
                        let mut sum = 0u64;
                        while let Ok(v) = rx.recv() {
                            sum += v as u64;
                        }
                        sum
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        });
        assert_eq!(total, (0..100).sum::<u32>() as u64);
    }

    #[test]
    fn bounded_send_blocks_until_recv() {
        let (tx, rx) = channel::bounded::<u8>(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the first recv
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join().unwrap();
        assert!(rx.recv().is_err()); // all senders gone
    }

    #[test]
    fn try_send_gives_back_what_does_not_fit() {
        let (tx, rx) = channel::bounded::<u8>(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(channel::TrySendError::Full(2)));
        assert_eq!(rx.try_recv(), Ok(1));
        drop(rx);
        assert_eq!(tx.try_send(3), Err(channel::TrySendError::Disconnected(3)));
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = channel::bounded::<u8>(1);
        drop(rx);
        assert!(tx.send(9).is_err());
    }
}
