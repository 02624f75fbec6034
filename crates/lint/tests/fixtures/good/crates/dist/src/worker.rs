//! FIXTURE (good): the same shapes with the guard scoped off the blocking
//! call — snapshot under the lock, block outside it — plus one reasoned
//! allow for an intentional serialization point. Never compiled.

pub struct Worker {
    txns: Mutex<Vec<u64>>,
    peers: Mutex<Vec<Chan>>,
}

impl Worker {
    // Guard released (end of block) before the send.
    pub fn broadcast(&self, chan: &mut Chan, tid: u64) {
        {
            let mut g = self.txns.lock();
            g.push(tid);
        }
        chan.send(&Msg::Begin { tid });
    }

    // Explicit drop before blocking.
    pub fn wait_ack(&self, chan: &mut Chan) -> Msg {
        let g = self.peers.lock();
        let deadline = g.len();
        drop(g);
        chan.recv_timeout(deadline)
    }

    // Temporary guards (no let binding) release at end of statement, well
    // before the blocking call.
    pub fn persist(&self, table: &Table) {
        let n = self.txns.lock().len();
        table.write_page(n, &Page::default());
    }

    // The intentional case, with a reason.
    pub fn serialized_rpc(&self, chan: &SharedChan) -> Msg {
        let mut c = chan.lock();
        // harbor-lint: allow(lock-across-blocking) — the SharedChan mutex IS the per-site RPC serialization point
        c.send(&Msg::Ping)
    }

    // The guard is released before the spawn, and the child takes the lock
    // on its own thread.
    pub fn spawn_flusher(self: Arc<Self>) {
        let n = {
            let g = self.txns.lock();
            g.len()
        };
        std::thread::spawn(move || {
            let g = self.txns.lock();
            fixture_flush(n, &g);
        });
    }
}
