//! FIXTURE (good): a front-door entry calls `fixture_validate`, a pure
//! check. A test helper in `core` shares the name and does budget-blind page
//! I/O through `fixture_rewrite`; test fns are no nodes of the call graph,
//! so no path links the entry to that I/O. Never compiled.

pub fn fixture_serve(req: Vec<u8>, deadline: Instant) -> DbResult<()> {
    fixture_validate(&req)
}

fn fixture_validate(req: &[u8]) -> DbResult<()> {
    Ok(())
}
