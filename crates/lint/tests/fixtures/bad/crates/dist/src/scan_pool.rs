//! FIXTURE (bad): the parallel-scan worker pool holding latches across the
//! merge channel. Never compiled.

pub struct ScanPool {
    partitions: Mutex<Vec<Partition>>,
}

impl ScanPool {
    // Violation: the frame latch is still live when the finished frame is
    // pushed into the bounded merge channel — every sibling worker that
    // needs this latch stalls until the merger drains a slot.
    pub fn worker(&self, frame: &Frame, tx: &Sender) {
        let page = frame.latch.lock();
        let framed = transcode(&page);
        tx.send(Ok(framed));
        drop(page);
    }

    // Violation: the merger ships downstream while the partition list is
    // locked, so workers cannot touch the partition state until the remote
    // peer drains the wire.
    pub fn merge(&self, chan: &mut Chan, framed: Vec<u8>) {
        let parts = self.partitions.lock();
        chan.send(framed);
        drop(parts);
    }
}
