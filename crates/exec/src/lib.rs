//! Query execution for the HARBOR reproduction: the operator interface of
//! thesis §6.1.5 with its two operators (a sequential scan and a filter),
//! the expression language, the read modes (current / historical /
//! see-deleted), the page visitor every read passes through, and the DML
//! executors.
//!
//! Like the thesis implementation ("query plans must be manually
//! constructed"), there is no SQL front end and no join or aggregate: the
//! worker's scan service, which serves every remote read and the recovery
//! queries of Chapter 5, and recovery's local statements drive the page
//! visitor directly; a caller that wants a local row stream builds a
//! `SeqScan`, wraps it in a `Filter` if it has a predicate, and
//! [`collect`]s it.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dml;
pub mod expr;
pub mod op;
pub mod scan;

pub use dml::{run_delete, run_insert, run_update, run_update_by_key};
pub use expr::{ArithOp, CmpOp, Columns, Expr};
pub use op::{collect, Filter, Operator};
pub use scan::{
    index_lookup, key_stretches, scan_pages, scan_rids, visit_page, visit_stretch, visit_versions,
    ReadMode, ScanRow, SeqScan,
};
