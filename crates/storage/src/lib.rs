//! Physical storage for the HARBOR reproduction: slotted pages, segmented
//! heap files with timestamp annotations, a buffer pool with pluggable
//! paging policies, a multi-granularity lock manager, and checkpointing.
//!
//! Architecture (thesis Fig 6-1, storage slice):
//!
//! ```text
//!      operators / engine
//!            │
//!        BufferPool ──── LockManager
//!            │
//!   SegmentedHeapFile (Directory + TableFile)
//!            │
//!        file system
//! ```
//!
//! The crate is recovery-mechanism-agnostic: a site running the ARIES
//! baseline attaches a [`harbor_wal::LogManager`] to the pool (WAL rule on
//! write-back, page LSNs); a HARBOR site attaches nothing and relies on
//! checkpoints plus replica queries.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod buffer;
pub mod checkpoint;
pub mod directory;
pub mod file;
pub mod lock;
pub mod page;
pub mod table;

pub use buffer::{BufferPool, BulkAppender, PagePolicy, PoolRecovery, RUN_PAGES};
pub use checkpoint::Checkpointer;
pub use directory::{Directory, ScanBounds, SegmentMeta};
pub use file::{page_crc, CheckpointRecord, TableFile};
pub use lock::{LockKey, LockManager, LockMode};
pub use page::{slots_per_page, Page};
pub use table::{SegmentedHeapFile, ZoneEntry};
