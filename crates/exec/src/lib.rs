//! Query execution for the HARBOR reproduction: the row operators of thesis
//! §6.1.5, the expression language, the three read modes (current /
//! historical / see-deleted), and DML executors.
//!
//! The thesis implementation had no SQL frontend ("query plans must be
//! manually constructed"); [`sql`] is a small one over the same operators,
//! one engine at a time, for the examples and the shell. The `harbor` crate
//! composes these pieces into the recovery queries of Chapter 5.

pub mod aggregate;
pub mod dml;
pub mod expr;
pub mod join;
pub mod op;
pub mod scan;
pub mod sql;

pub use aggregate::{AggFunc, AggSpec, HashAggregate};
pub use dml::{run_delete, run_insert, run_update, run_update_by_key};
pub use expr::{ArithOp, CmpOp, Expr};
pub use join::NestedLoopsJoin;
pub use op::{collect, Filter, Limit, Operator, Project, Values};
pub use scan::{
    index_lookup, scan_pages, scan_rids, visit_key, visit_page, visit_versions, ReadMode, ScanRow,
    SeqScan,
};
pub use sql::{execute as execute_sql, key_probes, query as query_sql};
