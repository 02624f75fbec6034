//! FIXTURE (good): the pool's write-back shape. The collected frame latches
//! pin the page images across the run write on purpose, and a reasoned
//! allow says so; a copy taken under a latch is written after it. Never
//! compiled.

impl BufferPool {
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
        // harbor-lint: allow(lock-across-blocking) — the latches pin the images until they are in the file
        table.write_run(0, buf)
    }

    pub fn flush_copy(&self, table: &Table, frame: &Frame) -> DbResult<()> {
        let image = {
            let page = frame.page.read();
            page.as_bytes().to_vec()
        };
        table.write_run(0, &image)
    }
}
