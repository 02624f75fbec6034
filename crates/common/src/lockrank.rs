//! Runtime lock-rank witness: the one check of the declared lock order.
//!
//! Every ranked acquisition pushes its [`Rank`] onto a thread-local stack
//! and panics if the new rank sorts *before* the current top — i.e. the
//! thread is acquiring a lock that the declared order says must be taken
//! earlier. Because it runs, it sees inversions spread across a call chain
//! (`flush_frame` → `table()` → catalog) as well as those inside one body,
//! which is why harbor-lint keeps no static copy of this order.
//!
//! Declared order (lowest acquired first):
//!
//! ```text
//! catalog → lock-manager → table-map → pool-shard → frame → wal
//! ```
//!
//! The witness is compiled to a zero-sized no-op in release builds
//! (`debug_assertions` off): the chaos-soak pinned seeds and the whole
//! debug test suite run with it armed, production binaries pay nothing.
//! Equal-rank re-acquisition is allowed — the sharded pool never takes two
//! shard mutexes at once, but independent frame latches of the same rank
//! are legal in sequence.

/// A ranked lock class. Order of the variants IS the declared acquisition
/// order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Rank {
    /// `Catalog::tables` — schema map.
    Catalog = 0,
    /// `LockManager::state` — table lock queues.
    LockManager = 1,
    /// `BufferPool::tables` — table-id → heap-file map.
    TableMap = 2,
    /// `Shard::frames` — one shard of the page→frame map.
    PoolShard = 3,
    /// `Frame::page` — a single page latch.
    Frame = 4,
    /// `BufferPool::wal` — the WAL handle (forced under the frame latch by
    /// the flush protocol, hence the highest rank).
    Wal = 5,
}

impl Rank {
    pub const fn name(self) -> &'static str {
        match self {
            Rank::Catalog => "catalog",
            Rank::LockManager => "lock-manager",
            Rank::TableMap => "table-map",
            Rank::PoolShard => "pool-shard",
            Rank::Frame => "frame",
            Rank::Wal => "wal",
        }
    }
}

/// `true` when the witness actually checks (debug builds).
pub const fn is_armed() -> bool {
    cfg!(debug_assertions)
}

#[cfg(debug_assertions)]
mod armed {
    use super::Rank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
    }

    /// Witness of one held ranked lock; releases its rank on drop.
    #[must_use = "the rank is only held while the guard lives"]
    pub struct RankGuard {
        rank: Rank,
    }

    /// Records `rank` as held by this thread, panicking on an inversion of
    /// the declared order. Call immediately before the matching lock
    /// acquisition and keep the returned guard alive as long as the lock
    /// guard.
    pub fn acquire(rank: Rank) -> RankGuard {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&top) = held.last() {
                if rank < top {
                    panic!(
                        "lock-rank inversion: acquiring `{}` (rank {}) while holding `{}` \
                         (rank {}); declared order is catalog → lock-manager → table-map → \
                         pool-shard → frame → wal",
                        rank.name(),
                        rank as u8,
                        top.name(),
                        top as u8
                    );
                }
            }
            held.push(rank);
        });
        RankGuard { rank }
    }

    impl Drop for RankGuard {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|r| *r == self.rank) {
                    held.remove(pos);
                }
            });
        }
    }

    /// The ranks this thread currently holds (outermost first).
    pub fn held() -> Vec<Rank> {
        HELD.with(|held| held.borrow().clone())
    }
}

#[cfg(not(debug_assertions))]
mod armed {
    use super::Rank;

    /// Zero-sized in release builds.
    pub struct RankGuard;

    #[inline(always)]
    pub fn acquire(_rank: Rank) -> RankGuard {
        RankGuard
    }

    #[inline(always)]
    pub fn held() -> Vec<Rank> {
        Vec::new()
    }
}

pub use armed::{acquire, held, RankGuard};

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn ordered_acquisition_passes() {
        let _a = acquire(Rank::Catalog);
        let _b = acquire(Rank::PoolShard);
        let _c = acquire(Rank::Wal);
        assert_eq!(held(), vec![Rank::Catalog, Rank::PoolShard, Rank::Wal]);
    }

    #[test]
    fn equal_rank_reacquisition_passes() {
        let _a = acquire(Rank::Frame);
        let _b = acquire(Rank::Frame);
    }

    #[test]
    fn drop_releases_out_of_order() {
        let a = acquire(Rank::TableMap);
        let b = acquire(Rank::Frame);
        drop(a);
        assert_eq!(held(), vec![Rank::Frame]);
        drop(b);
        // Stack empty again: the lowest rank is legal once more.
        let _c = acquire(Rank::Catalog);
    }

    #[test]
    #[should_panic(expected = "lock-rank inversion")]
    fn inversion_panics() {
        let _wal = acquire(Rank::Wal);
        let _shard = acquire(Rank::PoolShard);
    }
}
