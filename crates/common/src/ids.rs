//! Typed identifiers used throughout the system.
//!
//! Every identifier is a thin newtype over an integer so that the compiler
//! catches id-category confusion (e.g. passing a table id where a page number
//! was expected), at zero runtime cost.

use crate::wire_struct;
use std::fmt;

wire_struct! {
    /// Identifies one site (node) in the distributed database.
    ///
    /// A site may act as a worker, a coordinator, or both (thesis §4.1).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub struct SiteId(pub u16);
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

wire_struct! {
    /// Identifies one stored database object on a site: a table, or a horizontal
    /// partition of a table. Replicated copies on different sites share the same
    /// logical table name in the catalog but have independent `TableId`s.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub struct TableId(pub u32);
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

wire_struct! {
    /// Identifies a 4 KB page within a table's heap file.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub struct PageId {
        pub table: TableId,
        pub page_no: u32,
    }
}

impl PageId {
    pub const fn new(table: TableId, page_no: u32) -> Self {
        PageId { table, page_no }
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.p{}", self.table, self.page_no)
    }
}

wire_struct! {
    /// Physical address of a tuple: page plus slot number within the page.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub struct RecordId {
        pub page: PageId,
        pub slot: u16,
    }
}

impl RecordId {
    pub const fn new(page: PageId, slot: u16) -> Self {
        RecordId { page, slot }
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.page, self.slot)
    }
}

/// Index of a segment within a segmented heap file (thesis §4.2). Segments
/// are ordered by insertion time; segment 0 is the oldest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SegmentNo(pub u32);

impl fmt::Display for SegmentNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

wire_struct! {
    /// Globally unique transaction identifier.
    ///
    /// Coordinators mint transaction ids from a site-scoped counter; the site id
    /// is baked into the high bits so ids from different coordinators never
    /// collide (the thesis runs one coordinator, but §4.1 allows several).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
    pub struct TransactionId(pub u64);
}

impl TransactionId {
    /// Builds an id unique across coordinators: high 16 bits = coordinator
    /// site, low 48 bits = per-coordinator sequence number.
    pub fn from_parts(coordinator: SiteId, seq: u64) -> Self {
        debug_assert!(seq < (1 << 48), "transaction sequence overflow");
        TransactionId(((coordinator.0 as u64) << 48) | seq)
    }

    /// The coordinator that originated this transaction.
    pub fn coordinator(self) -> SiteId {
        SiteId((self.0 >> 48) as u16)
    }

    /// The per-coordinator sequence number.
    pub fn seq(self) -> u64 {
        self.0 & ((1 << 48) - 1)
    }
}

impl fmt::Display for TransactionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}:{}", self.coordinator().0, self.seq())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_id_round_trips_parts() {
        let tid = TransactionId::from_parts(SiteId(7), 123_456);
        assert_eq!(tid.coordinator(), SiteId(7));
        assert_eq!(tid.seq(), 123_456);
    }

    #[test]
    fn transaction_ids_from_different_coordinators_do_not_collide() {
        let a = TransactionId::from_parts(SiteId(1), 5);
        let b = TransactionId::from_parts(SiteId(2), 5);
        assert_ne!(a, b);
    }

    #[test]
    fn display_forms_are_compact() {
        let rid = RecordId::new(PageId::new(TableId(3), 9), 4);
        assert_eq!(rid.to_string(), "T3.p9/4");
        assert_eq!(SiteId(2).to_string(), "S2");
        assert_eq!(SegmentNo(1).to_string(), "seg1");
    }

    #[test]
    fn page_ids_order_by_table_then_page() {
        let a = PageId::new(TableId(1), 9);
        let b = PageId::new(TableId(2), 0);
        assert!(a < b);
    }
}
