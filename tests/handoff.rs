//! The hand-off primitives under a transaction: the channel and condvar
//! shims wake only a thread that is asleep, so a wake they skip must never
//! be one somebody was waiting for. A lost wake on an untimed wait hangs
//! (the watchdog fails the test); on the channel, whose waits are 50 ms
//! slices, it shows as a round trip of a slice or more.

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUND_TRIPS: usize = 10_000;
const WATCHDOG: Duration = Duration::from_secs(10);
/// A round trip this slow waited out a slice of the channel's park.
const SLICE: Duration = Duration::from_millis(50);

/// Runs `body` on a thread of its own and fails if it has not finished
/// within the watchdog's time.
fn within_watchdog<T: Send + 'static>(what: &str, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let out = body();
        done_tx.send(()).ok();
        out
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(WATCHDOG) {
        panic!("{what}: a waiter was never woken ({WATCHDOG:?})");
    }
    runner.join().expect("hand-off thread panicked")
}

/// Round trips from this thread to an echo thread and back, each timed.
/// Fails if more than 1 % of them waited out a slice.
fn ping_pong(what: &str, channel: fn() -> (Sender<usize>, Receiver<usize>)) {
    let (ping_tx, ping_rx) = channel();
    let (pong_tx, pong_rx) = channel();
    let slow = within_watchdog(what, move || {
        let echo = std::thread::spawn(move || {
            while let Ok(v) = ping_rx.recv() {
                pong_tx.send(v).unwrap();
            }
        });
        let mut slow = 0;
        for i in 0..ROUND_TRIPS {
            let t = Instant::now();
            ping_tx.send(i).unwrap();
            assert_eq!(pong_rx.recv(), Ok(i));
            if t.elapsed() >= SLICE {
                slow += 1;
            }
        }
        drop(ping_tx);
        echo.join().unwrap();
        slow
    });
    assert!(
        slow * 100 <= ROUND_TRIPS,
        "{what}: {slow} of {ROUND_TRIPS} round trips took {SLICE:?} or more"
    );
}

#[test]
fn unbounded_ping_pong_loses_no_wake() {
    ping_pong("unbounded", unbounded);
}

#[test]
fn rendezvous_ping_pong_loses_no_wake() {
    ping_pong("bounded(0)", || bounded(0));
}

/// Four threads pass a token round a ring under one mutex, each waiting
/// for its turn with an untimed `wait`: a lost wake stops the ring.
#[test]
fn a_token_ring_on_a_condvar_loses_no_wake() {
    const THREADS: usize = 4;
    const PASSES: usize = 10_000;
    within_watchdog("token ring", || {
        let ring = Arc::new((Mutex::new(0usize), Condvar::new()));
        let threads: Vec<_> = (0..THREADS)
            .map(|me| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    let (turn, cv) = &*ring;
                    let mut turn = turn.lock();
                    while *turn < PASSES {
                        if *turn % THREADS == me {
                            *turn += 1;
                            cv.notify_all();
                        } else {
                            cv.wait(&mut turn);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*ring.0.lock(), PASSES);
    });
}
