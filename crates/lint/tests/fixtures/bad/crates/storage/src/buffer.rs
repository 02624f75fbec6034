//! FIXTURE (bad): frame latches held across the pool's durable run write.
//! Never compiled.

impl BufferPool {
    // Violation: the one durable page write under a frame latch.
    pub fn flush_one(&self, table: &Table, frame: &Frame) -> DbResult<()> {
        let page = frame.page.read();
        table.write_run(0, page.as_bytes())?;
        drop(page);
        Ok(())
    }

    // Violation: the latches are taken in a closure and collected; the
    // vector of guards holds them across the write.
    pub fn flush_run(&self, table: &Table, run: &[Arc<Frame>], buf: &mut Vec<u8>) -> DbResult<()> {
        let latched: Vec<_> = run
            .iter()
            .map(|frame| {
                let page = frame.page.read();
                (frame, page)
            })
            .collect();
        for (_, page) in &latched {
            buf.extend_from_slice(page.as_bytes());
        }
        table.write_run(0, buf)
    }
}
