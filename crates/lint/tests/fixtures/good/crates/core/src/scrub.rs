//! FIXTURE (good): see `front/src/session.rs`. `fixture_rewrite` does page
//! I/O without a deadline, and only a test helper calls it. Never compiled.

pub fn fixture_rewrite(pool: &Pool) -> DbResult<()> {
    pool.write_page(0)
}

#[cfg(test)]
mod tests {
    fn fixture_validate(req: &[u8]) -> DbResult<()> {
        fixture_rewrite(&fixture_pool())
    }
}
