//! Offline stand-in for the `crossbeam` crate.
//!
//! The build container has no access to a crates.io mirror, so the workspace
//! vendors the part it uses: `crossbeam::channel` with MPMC `unbounded` and
//! `bounded` channels (capacity 0 = rendezvous), cloneable senders *and*
//! receivers, and the same
//! disconnect semantics (send fails once every receiver is gone; recv drains
//! the queue and then fails once every sender is gone).
//!
//! **The wake rule.** A `notify` on a std condvar is a `FUTEX_WAKE` syscall
//! whether or not anybody sleeps on it, so, like the crate it stands in for,
//! the shim wakes only a thread that is asleep. Receivers parked in a
//! blocking receive and senders blocked on a full bounded channel count
//! themselves in and out under the queue lock; a send wakes one receiver
//! only if one is parked, and a receive wakes one sender only if one is
//! blocked, each deciding under the lock after its push or pop. A hand-off
//! to a thread that is not asleep costs no syscall, and a strict ping-pong
//! costs at most one wake a message. Disconnects still wake everybody.
//! Waits are 50 ms slices that re-check the queue, so a lost wake would
//! show as a slice's delay, never as a hang.
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
        /// Receivers parked in a blocking receive: what a send wakes, and on
        /// a rendezvous channel what its senders wait for.
        parked: AtomicUsize,
        /// Senders waiting for room in a full bounded channel: what a
        /// receive wakes.
        blocked: AtomicUsize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        not_empty: Condvar,
        not_full: Condvar,
        /// `notify_one`s issued, for the tests' lost-wake and wasted-wake
        /// checks.
        #[cfg(test)]
        wakes: AtomicUsize,
    }

    type Queue<'a, T> = std::sync::MutexGuard<'a, VecDeque<(T, MsgClock)>>;

    impl<T> Shared<T> {
        fn lock(&self) -> Queue<'_, T> {
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Wakes one thread waiting on `cv`. Callers decide under the queue
        /// lock that one is waiting: a notify nobody waits for is a syscall
        /// for nothing.
        fn wake(&self, cv: &Condvar) {
            #[cfg(test)]
            self.wakes.fetch_add(1, Ordering::SeqCst);
            cv.notify_one();
        }

        /// The queue's next value, waking a sender blocked for its room.
        fn take(&self, q: &mut Queue<'_, T>) -> Option<T> {
            let (v, mc) = q.pop_front()?;
            if self.blocked.load(Ordering::SeqCst) > 0 {
                self.wake(&self.not_full);
            }
            mc.join_into_current();
            Some(v)
        }

        /// A receiver's wait for a value, counted so that a send knows to
        /// wake it (and, on a rendezvous channel, that somebody is there to
        /// take one).
        fn park<'a>(&self, q: Queue<'a, T>, slice: Duration) -> Queue<'a, T> {
            self.parked.fetch_add(1, Ordering::SeqCst);
            if self.cap == Some(0) && self.blocked.load(Ordering::SeqCst) > 0 {
                self.wake(&self.not_full);
            }
            let q = self
                .not_empty
                .wait_timeout(q, slice)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            self.parked.fetch_sub(1, Ordering::SeqCst);
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
            blocked: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            #[cfg(test)]
            wakes: AtomicUsize::new(0),
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
                        shared.blocked.fetch_add(1, Ordering::SeqCst);
                        q = shared
                            .not_full
                            .wait_timeout(q, Duration::from_millis(50))
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                        shared.blocked.fetch_sub(1, Ordering::SeqCst);
                    }
                    _ => break,
                }
            }
            q.push_back((value, MsgClock::stamp()));
            let wake = shared.parked.load(Ordering::SeqCst) > 0;
            drop(q);
            if wake {
                shared.wake(&shared.not_empty);
            }
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let shared = &*self.shared;
            let mut q = shared.lock();
            loop {
                if let Some(v) = shared.take(&mut q) {
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
            if let Some(v) = shared.take(&mut q) {
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
                if let Some(v) = shared.take(&mut q) {
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

        fn wakes<T>(rx: &Receiver<T>) -> usize {
            rx.shared.wakes.load(Ordering::SeqCst)
        }

        /// Spins (without parking) until `rx` has a receiver parked on it.
        fn until_parked<T>(rx: &Receiver<T>) {
            while rx.shared.parked.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        }

        #[test]
        fn a_send_nobody_waits_for_wakes_nobody() {
            let (tx, rx) = unbounded();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            for i in 0..100 {
                assert_eq!(rx.try_recv(), Ok(i));
            }
            assert_eq!(wakes(&rx), 0);
            // A receiver that is parked is woken, once.
            let t = {
                let rx = rx.clone();
                std::thread::spawn(move || rx.recv().unwrap())
            };
            until_parked(&rx);
            tx.send(7).unwrap();
            assert_eq!(t.join().unwrap(), 7);
            assert_eq!(wakes(&rx), 1);
        }

        /// The rendezvous handshake: a sender that came first is blocked
        /// until a receiver arrives, and the receiver's arrival wakes it
        /// rather than leaving it to its slice.
        #[test]
        fn a_sender_that_came_first_is_woken_by_the_receiver() {
            let (tx, rx) = bounded(0);
            let sender = std::thread::spawn(move || tx.send(5).unwrap());
            while rx.shared.blocked.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            assert_eq!(rx.recv(), Ok(5));
            sender.join().unwrap();
            assert_eq!(wakes(&rx), 2, "the receiver's arrival, then the value");
        }

        /// Each side of a strict ping-pong is parked, or about to be, when
        /// its message arrives: no more than one wake a message, and every
        /// round trip completes (a lost wake would stall it for a slice). A
        /// rendezvous message may cost two: a sender that came first is
        /// woken by the receiver's arrival, and then wakes it in turn.
        #[test]
        fn a_ping_pong_costs_at_most_a_wake_a_message() {
            const N: usize = 2_000;
            for (cap, per_message) in [(None, 1), (Some(1), 1), (Some(0), 2)] {
                let (ping_tx, ping_rx) = with_cap::<usize>(cap);
                let (pong_tx, pong_rx) = with_cap::<usize>(cap);
                let echo = std::thread::spawn(move || {
                    while let Ok(v) = ping_rx.recv() {
                        pong_tx.send(v).unwrap();
                    }
                    ping_rx
                });
                let start = Instant::now();
                for i in 0..N {
                    ping_tx.send(i).unwrap();
                    assert_eq!(pong_rx.recv(), Ok(i));
                }
                assert!(start.elapsed() < Duration::from_secs(20), "{cap:?}");
                drop(ping_tx);
                let ping_rx = echo.join().unwrap();
                let total = wakes(&ping_rx) + wakes(&pong_rx);
                assert!(
                    total <= 2 * N * per_message,
                    "{cap:?}: {total} wakes for {N} round trips"
                );
            }
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
