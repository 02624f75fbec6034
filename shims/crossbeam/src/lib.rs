//! Offline stand-in for the `crossbeam` crate.
//!
//! The build container has no access to a crates.io mirror, so the workspace
//! vendors the part it uses: `crossbeam::channel` with MPMC `unbounded` and
//! `bounded` channels (capacity 0 = rendezvous), cloneable senders *and*
//! receivers, and the same
//! disconnect semantics (send fails once every receiver is gone; recv drains
//! the queue and then fails once every sender is gone).
//!
//! Because every channel in the workspace flows through this shim, it doubles
//! as the message half of **ShimSan** (`harbor_common::shimsan`): each queued
//! element carries a vector-clock [`MsgClock`](harbor_common::shimsan::MsgClock)
//! stamped by the sender and joined into the receiving thread on delivery, so
//! a receiver is ordered after exactly the sender that produced its message.
//! In release builds `MsgClock` is zero-sized and the queue layout is
//! identical to the uninstrumented shim.

pub mod channel {
    use harbor_common::shimsan::MsgClock;
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<(T, MsgClock)>>,
        cap: Option<usize>,
        /// Receivers of a rendezvous channel parked in a blocking receive
        /// (changed under the queue lock): what its senders wait for.
        parked: AtomicUsize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    type Queue<'a, T> = std::sync::MutexGuard<'a, VecDeque<(T, MsgClock)>>;

    impl<T> Shared<T> {
        fn lock(&self) -> Queue<'_, T> {
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// A receiver's wait for a value; on a rendezvous channel it is
        /// counted, so that a sender knows somebody is there to take one.
        fn park<'a>(&self, q: Queue<'a, T>, slice: Duration) -> Queue<'a, T> {
            let rendezvous = self.cap == Some(0);
            if rendezvous {
                self.parked.fetch_add(1, Ordering::SeqCst);
                self.not_full.notify_one();
            }
            let q = self
                .not_empty
                .wait_timeout(q, slice)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            if rendezvous {
                self.parked.fetch_sub(1, Ordering::SeqCst);
            }
            q
        }
    }

    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cap,
            parked: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
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

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// `bounded(0)` is a rendezvous channel, as in crossbeam: `send` blocks
    /// until a receiver is parked in `recv`/`recv_timeout` to take the value
    /// (a `try_recv` never meets a sender here, which crossbeam allows).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let shared = &*self.shared;
            let mut q = shared.lock();
            loop {
                if shared.receivers.load(Ordering::SeqCst) == 0 {
                    return Err(SendError(value));
                }
                // A rendezvous channel has room for one value per receiver
                // already waiting for it.
                let room = match shared.cap {
                    Some(0) => Some(shared.parked.load(Ordering::SeqCst)),
                    cap => cap,
                };
                match room {
                    Some(room) if q.len() >= room => {
                        q = shared
                            .not_full
                            .wait_timeout(q, Duration::from_millis(50))
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                    _ => break,
                }
            }
            q.push_back((value, MsgClock::stamp()));
            drop(q);
            shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &*self.shared;
            let mut q = shared.lock();
            loop {
                if let Some((v, mc)) = q.pop_front() {
                    shared.not_full.notify_one();
                    mc.join_into_current();
                    return Ok(v);
                }
                if shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = shared.park(q, Duration::from_millis(50));
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let shared = &*self.shared;
            let mut q = shared.lock();
            if let Some((v, mc)) = q.pop_front() {
                shared.not_full.notify_one();
                mc.join_into_current();
                return Ok(v);
            }
            if shared.senders.load(Ordering::SeqCst) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let shared = &*self.shared;
            let mut q = shared.lock();
            loop {
                if let Some((v, mc)) = q.pop_front() {
                    shared.not_full.notify_one();
                    mc.join_into_current();
                    return Ok(v);
                }
                if shared.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                q = shared.park(q, (deadline - now).min(Duration::from_millis(50)));
            }
        }

        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }

        pub fn len(&self) -> usize {
            self.shared.lock().len()
        }

        pub fn is_empty(&self) -> bool {
            self.shared.lock().is_empty()
        }
    }

    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: self.shared.clone(),
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

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn unbounded_round_trip_and_disconnect() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            drop(tx);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            tx.send(9).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
        }

        #[test]
        fn bounded_applies_backpressure() {
            let (tx, rx) = bounded(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            let t = std::thread::spawn(move || tx.send(3).unwrap());
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            t.join().unwrap();
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
        }

        #[test]
        fn zero_capacity_is_a_rendezvous() {
            let (tx, rx) = bounded(0);
            let sent = std::sync::Arc::new(AtomicUsize::new(0));
            let t = {
                let sent = sent.clone();
                std::thread::spawn(move || {
                    for i in 0..2 {
                        tx.send(i).unwrap();
                        sent.fetch_add(1, Ordering::SeqCst);
                    }
                })
            };
            // Nobody is receiving: nothing is buffered on the sender's word.
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(sent.load(Ordering::SeqCst), 0);
            assert!(rx.is_empty());
            assert_eq!(rx.recv(), Ok(0));
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(1));
            t.join().unwrap();
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_fails_when_all_receivers_gone() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert_eq!(tx.send(5), Err(SendError(5)));
        }

        /// The message half of ShimSan: a send/recv pair is a happens-before
        /// edge, so the receiver's witness write is ordered after the
        /// sender's (debug builds panic on a real race).
        #[test]
        fn shimsan_message_edge_orders_witness_accesses() {
            use harbor_common::shimsan::RaceWitness;
            use std::sync::Arc;
            let w = Arc::new(RaceWitness::new());
            let (tx, rx) = unbounded::<u32>();
            let w2 = w.clone();
            let t = std::thread::spawn(move || {
                w2.check_write("handed-off cell");
                tx.send(11).unwrap();
            });
            assert_eq!(rx.recv(), Ok(11));
            w.check_write("handed-off cell");
            t.join().unwrap();
        }

        #[test]
        fn mpmc_clones_both_ways() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            let rx2 = rx.clone();
            tx2.send(7).unwrap();
            drop(tx);
            drop(tx2);
            let got = rx2.recv().unwrap();
            assert_eq!(got, 7);
            assert_eq!(rx.recv(), Err(RecvError));
        }
    }
}
