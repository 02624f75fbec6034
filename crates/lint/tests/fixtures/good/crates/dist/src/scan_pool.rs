//! FIXTURE (good): the parallel-scan worker pool's actual shape — frames
//! are transcoded under the latch but finished and sent only after it
//! drops, and the merger holds nothing across the downstream ship.
//! Never compiled.

pub struct ScanPool {
    partitions: Mutex<Vec<Partition>>,
}

impl ScanPool {
    // The latch scopes to the transcode; the send happens after the block
    // releases it.
    pub fn worker(&self, frame: &Frame, tx: &Sender) {
        let framed = {
            let page = frame.latch.lock();
            transcode(&page)
        };
        tx.send(Ok(framed));
    }

    // The merger snapshots its partition order up front and holds no guard
    // while shipping downstream.
    pub fn merge(&self, chan: &mut Chan, mut framed: Vec<u8>) {
        let order = {
            let parts = self.partitions.lock();
            parts.len()
        };
        framed.truncate(order);
        chan.send(framed);
    }
}
