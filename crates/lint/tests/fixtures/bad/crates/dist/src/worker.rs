//! FIXTURE (bad): lock guards spanning blocking calls. Never compiled.

pub struct Worker {
    txns: Mutex<Vec<u64>>,
    peers: Mutex<Vec<Chan>>,
}

impl Worker {
    // Violation: channel send while the txn-table guard is held — every
    // other txn on this worker stalls for a full network round trip.
    pub fn broadcast(&self, chan: &mut Chan, tid: u64) {
        let mut g = self.txns.lock();
        g.push(tid);
        chan.send(&Msg::Begin { tid });
    }

    // Violation: recv under a guard is worse — it parks the holder until a
    // remote peer speaks.
    pub fn wait_ack(&self, chan: &mut Chan) -> Msg {
        let g = self.peers.lock();
        let reply = chan.recv_timeout(DEADLINE);
        drop(g);
        reply
    }

    // Violation: page I/O under a guard.
    pub fn persist(&self, table: &Table) {
        let g = self.txns.lock();
        table.write_page(0, &Page::default());
        drop(g);
    }

    // Violation: a second (unranked) lock acquired while the first guard
    // is live.
    pub fn double(&self) {
        let a = self.txns.lock();
        let b = self.peers.lock();
        drop(b);
        drop(a);
    }

    // Violation: a thread spawned while the txn-table guard is held — the
    // child runs concurrently against a lock its parent still holds.
    pub fn spawn_flusher(&self) {
        let g = self.txns.lock();
        std::thread::spawn(move || fixture_flush());
        drop(g);
    }

    // Violation: the same through a builder's `.spawn(`.
    pub fn spawn_named(&self) {
        let g = self.peers.lock();
        std::thread::Builder::new().name("peer".into()).spawn(move || fixture_flush());
        drop(g);
    }
}
