//! Shared foundations for the HARBOR reproduction.
//!
//! This crate holds everything that more than one subsystem needs and that has
//! no dependencies of its own: typed identifiers, the logical [`Timestamp`]
//! model with its `0 = not deleted` and [`Timestamp::UNCOMMITTED`] sentinels
//! (thesis §3.3), the fixed-width tuple model used by the row store, error
//! types, runtime configuration, and the metrics counters that the evaluation
//! harness reads to *measure* (rather than assert) Table 4.2.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod config;
pub mod error;
pub mod fault;
pub mod ids;
pub mod lockrank;
pub mod metrics;
pub mod retry;
pub mod schema;
pub mod time;
pub mod tuple;
pub mod value;

pub use config::{DiskProfile, StorageConfig};
pub use error::{DbError, DbResult};
pub use ids::{PageId, RecordId, SegmentNo, SiteId, TableId, TransactionId};
pub use metrics::{Metrics, MetricsSnapshot};
pub use retry::{retry_with, splitmix64, RetryPolicy};
pub use schema::{FieldType, TupleDesc};
pub use time::Timestamp;
pub use tuple::Tuple;
pub use value::Value;
