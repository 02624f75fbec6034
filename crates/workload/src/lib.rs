//! Workload generators and measurement utilities for the evaluation
//! harnesses (thesis Chapter 6).
//!
//! The paper's workloads are simple by design: single-insert transactions
//! of ~64-byte tuples (§6.3.1), optionally with a spin-loop of simulated
//! CPU work per transaction (§6.3.2), plus update transactions that target
//! tuples in historical segments (§6.4.2). This crate generates those
//! workloads against a [`harbor::Cluster`] and measures throughput,
//! latency, and per-second timelines.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod driver;
pub mod gen;
pub mod measure;

pub use driver::{run_front_clients, DriverConfig, DriverReport};
pub use gen::{insert_request, paper_row, update_by_key_request, InsertStream};
pub use measure::{
    percentile, run_concurrent_streams, StreamReport, ThroughputSample, Timeline, TimelineBucket,
};

#[cfg(test)]
mod tests {
    use super::*;
    use harbor_common::Value;

    #[test]
    fn paper_rows_have_the_evaluation_shape() {
        let row = paper_row(42);
        // id + 13 payload fields = 14 user fields; with the two timestamps
        // that is 16 fields, the §6.2 tuple shape.
        assert_eq!(row.len(), 14);
        assert_eq!(row[0], Value::Int64(42));
        assert!(matches!(row[1], Value::Int32(_)));
    }

    #[test]
    fn insert_stream_yields_unique_ids() {
        let s = InsertStream::new("t", 100);
        let a = s.next();
        let b = s.next();
        match (&a, &b) {
            (
                harbor_dist::UpdateRequest::Insert { values: va, .. },
                harbor_dist::UpdateRequest::Insert { values: vb, .. },
            ) => {
                assert_ne!(va[0], vb[0]);
            }
            _ => panic!("unexpected request shape"),
        }
    }
}
