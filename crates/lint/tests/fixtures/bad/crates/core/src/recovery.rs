//! FIXTURE (bad): classified errors minted outside the classification
//! boundaries. Recovery failover and scrub repair dispatch on these
//! variants, so ad-hoc construction corrupts failure handling.
//! Never compiled.

pub fn fetch_range(buddy: SiteId) -> DbResult<Vec<Tuple>> {
    // Violation: a slow local loop is not a *wire* timeout; inventing one
    // here makes the caller retry an idempotent read that never left the
    // process.
    Err(DbError::Timeout("local work took too long".into()))
}

pub fn mark_buddy(site: SiteId) -> DbError {
    // Violation: convenience constructor is still a construction.
    DbError::unavailable(format!("site {site:?} looks slow"))
}

pub fn fake_corruption(table: TableId, page: u32) -> DbError {
    // Violation: only checksum verification in storage/src/file.rs may
    // declare a page corrupt.
    DbError::CorruptPage { table, page }
}

pub fn sloppy(site: SiteId) -> DbError {
    // Violation: bare allow — the escape hatch without a reason is itself
    // reported (rule `lint-allow`) and suppresses nothing.
    // harbor-lint: allow(error-taxonomy)
    DbError::unavailable(format!("site {site:?} looks sloppy"))
}
