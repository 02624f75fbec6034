//! # HARBOR — High Availability and Replication-Based Online Recovery
//!
//! A from-scratch Rust reproduction of Edmond Lau's HARBOR (MIT, 2006; the
//! system behind "An Integrated Approach to Recovery and High Availability
//! in an Updatable, Distributed Data Warehouse"): an updatable, replicated
//! data warehouse whose crash recovery is performed not from a log but by
//! *querying remote replicas* for missing updates.
//!
//! The big idea: a highly available warehouse already replicates data
//! (K-safety) and already supports lock-free *historical queries* over its
//! versioned, timestamped tuples. Put together, a crashed site can:
//!
//! 1. roll its local state back to its last checkpoint (two local queries);
//! 2. catch up to a high water mark by historical queries against live
//!    replicas — with **no locks**, so the system is never quiesced;
//! 3. close the final gap under short table read locks, join the pending
//!    transactions via the coordinator's update queues, and come online.
//!
//! Because no worker needs a recovery log, the commit protocols can drop
//! their forced log writes: the optimized 3PC variant runs with **no log
//! and no forced writes at all**, which is where the paper's 10× latency
//! win over traditional 2PC comes from.
//!
//! ## Crate map
//!
//! * [`cluster`] — the quickstart facade: build a coordinator + N workers,
//!   run transactions, crash and recover sites.
//! * [`recovery`] — the three-phase recovery algorithm itself.
//! * Substrates live in sibling crates: `harbor-storage` (segmented heap
//!   files, buffer pool, lock manager), `harbor-engine` (versioned
//!   transactions), `harbor-exec` (operators, historical reads),
//!   `harbor-wal` (the ARIES baseline), `harbor-net` (TCP/in-mem
//!   transports), `harbor-dist` (the four commit protocols).
//!
//! ## Quickstart
//!
//! ```no_run
//! use harbor::{Cluster, ClusterConfig, TableSpec};
//! use harbor_dist::ProtocolKind;
//! use harbor_common::Value;
//!
//! let cfg = ClusterConfig::for_tests(ProtocolKind::Opt3pc);
//! let cluster = Cluster::build("/tmp/harbor-demo", cfg).unwrap();
//! cluster.insert_one("sales", vec![Value::Int64(1), Value::Int32(10)]).unwrap();
//! let site = cluster.worker_sites()[0];
//! cluster.crash_worker(site).unwrap();
//! let report = cluster.recover_worker_harbor(site).unwrap();
//! println!("recovered in {:?}", report.total);
//! ```

#![forbid(unsafe_code)]

pub mod chaos_harness;
pub mod cluster;
pub mod recovery;
pub mod supervisor;

pub use chaos_harness::{ChaosRunConfig, ChaosRunReport};
pub use cluster::{Cluster, ClusterConfig, TableSpec, TransportKind, TxnRouter, COORDINATOR_SITE};
pub use recovery::{
    quarantine_site, recover_object, recover_site, ObjectReport, RecoveryContext, RecoveryReport,
    ScrubReport,
};
pub use supervisor::{Repair, ReplicationSupervisor, SupervisorHandle};
