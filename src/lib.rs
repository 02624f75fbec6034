//! Umbrella crate for the HARBOR reproduction workspace.
//!
//! Hosts the runnable examples in `examples/` and the cross-crate
//! integration tests in `tests/`. The re-exports below give examples a
//! single import surface.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub use harbor;
pub use harbor_common as common;
pub use harbor_dist as dist;
pub use harbor_engine as engine;
pub use harbor_exec as exec;
pub use harbor_net as net;
pub use harbor_storage as storage;
pub use harbor_wal as wal;
pub use harbor_workload as workload;
