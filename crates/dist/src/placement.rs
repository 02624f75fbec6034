//! Data placement and K-safety (thesis §3.2, §5.1).
//!
//! Each logical table has K+1 *copies*; a copy is either one full replica on
//! a site or a set of horizontal partitions spread over sites whose
//! predicates are mutually exclusive and collectively exhaustive. Copies
//! need not be stored identically — this catalog only records *which sites
//! logically hold which rows*, which is exactly the information the thesis
//! assumes the catalog stores for computing recovery objects and recovery
//! predicates (§5.1).

use harbor_common::{DbError, DbResult, SiteId};
use harbor_exec::Expr;
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// One piece of one copy: a site plus the partition predicate it holds
/// (`None` = the whole table). Predicates are over the stored tuple
/// (version columns at indices 0/1).
#[derive(Clone, Debug)]
pub struct Part {
    pub site: SiteId,
    pub predicate: Option<Expr>,
}

impl Part {
    pub fn full(site: SiteId) -> Self {
        Part {
            site,
            predicate: None,
        }
    }

    pub fn partition(site: SiteId, predicate: Expr) -> Self {
        Part {
            site,
            predicate: Some(predicate),
        }
    }
}

/// One logical copy of a table.
#[derive(Clone, Debug)]
pub struct Copy {
    pub parts: Vec<Part>,
}

/// Placement of one logical table.
#[derive(Clone, Debug)]
pub struct TablePlacement {
    pub name: String,
    pub copies: Vec<Copy>,
}

/// A recovery object (§5.1): the object to query, the recovery predicate
/// restricting it to the failed object's rows, and the sites to query it at.
#[derive(Clone, Debug)]
pub struct RecoveryObject {
    pub table: String,
    /// Conjunction of the failed part's predicate and the buddy part's
    /// predicate (`None` = everything).
    pub predicate: Option<Expr>,
    /// The sites that can answer the recovery queries, in catalog order:
    /// the plan's buddy first, then every other live full copy. Phase 2
    /// deals its ranges across them; whoever asks one site at a time fails
    /// over down the list (§5.5).
    pub buddies: Vec<SiteId>,
}

/// Cluster-wide placement catalog plus the address book.
///
/// The catalog is *versioned and mutable*: membership operations (site
/// join, decommission, re-replication) edit it at runtime and bump
/// [`version`](Self::version), so planners can tell a stale snapshot from
/// the cluster-birth layout. Copies being bootstrapped onto a site are
/// tracked in `joining` until their Phase-3 handshake completes: until
/// then the coordinator routes them nothing (`Coordinator::is_usable` reads
/// this set; what commits meanwhile reaches them through recovery's
/// queries) and they are never offered as recovery buddies.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    tables: HashMap<String, TablePlacement>,
    addresses: HashMap<SiteId, String>,
    coordinator_addr: Option<String>,
    /// Table → sites whose copy of it is allocated but not yet caught up:
    /// the data is incomplete until recovery Phase 3 announces it online.
    joining: BTreeMap<String, BTreeSet<SiteId>>,
    /// Bumped on every mutation.
    version: u64,
}

impl Placement {
    pub fn new() -> Self {
        Placement::default()
    }

    /// The catalog mutation counter: distinguishes a stale snapshot from
    /// the live membership.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn bump(&mut self) {
        self.version += 1;
    }

    pub fn add_table(&mut self, name: &str, copies: Vec<Copy>) {
        self.tables.insert(
            name.to_string(),
            TablePlacement {
                name: name.to_string(),
                copies,
            },
        );
        self.bump();
    }

    /// Convenience: a table fully replicated on each given site (the
    /// thesis evaluation's configuration).
    pub fn add_replicated_table(&mut self, name: &str, sites: &[SiteId]) {
        let copies = sites
            .iter()
            .map(|s| Copy {
                parts: vec![Part::full(*s)],
            })
            .collect();
        self.add_table(name, copies);
    }

    pub fn set_address(&mut self, site: SiteId, addr: &str) {
        self.addresses.insert(site, addr.to_string());
        self.bump();
    }

    pub fn address(&self, site: SiteId) -> DbResult<&str> {
        self.addresses
            .get(&site)
            .map(|s| s.as_str())
            .ok_or_else(|| DbError::internal(format!("no address for {site}")))
    }

    /// `true` while `site` is in the address book — i.e. a cluster member
    /// (possibly crashed, possibly still joining), as opposed to never
    /// added or already decommissioned.
    pub fn is_member(&self, site: SiteId) -> bool {
        self.addresses.contains_key(&site)
    }

    /// Every member site, sorted.
    pub fn member_sites(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self.addresses.keys().copied().collect();
        v.sort();
        v
    }

    /// Allocates a brand-new full copy of `table` on `site`, marked
    /// join-pending: it is routed nothing and serves as no one's buddy
    /// until [`finish_copy_join`](Self::finish_copy_join).
    pub fn add_full_copy(&mut self, table: &str, site: SiteId) -> DbResult<()> {
        let tp = self
            .tables
            .get_mut(table)
            .ok_or_else(|| DbError::Schema(format!("unplaced table {table:?}")))?;
        if tp
            .copies
            .iter()
            .flat_map(|c| c.parts.iter())
            .any(|p| p.site == site)
        {
            return Err(DbError::internal(format!(
                "{site} already holds a part of {table}"
            )));
        }
        tp.copies.push(Copy {
            parts: vec![Part::full(site)],
        });
        self.joining
            .entry(table.to_string())
            .or_default()
            .insert(site);
        self.bump();
        Ok(())
    }

    /// Marks the copy of `table` on `site` fully caught up (Phase-3
    /// handshake complete): it is now a valid recovery buddy.
    pub fn finish_copy_join(&mut self, table: &str, site: SiteId) {
        if self.joining.get_mut(table).is_some_and(|s| s.remove(&site)) {
            self.bump();
        }
    }

    /// Rolls back an *aborted* bootstrap: the still-joining copy of `table`
    /// on `site` leaves the catalog (its data is incomplete and never went
    /// live). Returns whether it did; `false` if the pair is not joining.
    pub fn abort_copy_join(&mut self, table: &str, site: SiteId) -> bool {
        if !self.joining.get_mut(table).is_some_and(|s| s.remove(&site)) {
            return false;
        }
        if let Some(tp) = self.tables.get_mut(table) {
            tp.copies
                .retain(|c| !c.parts.iter().all(|p| p.site == site));
        }
        self.bump();
        true
    }

    pub fn is_copy_joining(&self, table: &str, site: SiteId) -> bool {
        self.joining.get(table).is_some_and(|s| s.contains(&site))
    }

    /// All `(table, site)` copies still bootstrapping, sorted.
    pub fn joining_copies(&self) -> Vec<(String, SiteId)> {
        self.joining
            .iter()
            .flat_map(|(table, sites)| sites.iter().map(move |site| (table.clone(), *site)))
            .collect()
    }

    /// Removes `site` from the catalog: drops every copy stored wholly on
    /// it and erases its address. Refuses if a table would lose its last
    /// copy, or if `site` holds a *piece* of a multi-site partitioned copy
    /// (dropping one partition would leave the copy non-exhaustive; such
    /// parts must be re-homed with data movement first). Returns the
    /// affected table names.
    pub fn remove_site(&mut self, site: SiteId) -> DbResult<Vec<String>> {
        if !self.addresses.contains_key(&site) {
            return Err(DbError::internal(format!("{site} is not a member")));
        }
        let mut affected = Vec::new();
        for tp in self.tables.values() {
            let whole: usize = tp
                .copies
                .iter()
                .filter(|c| c.parts.iter().all(|p| p.site == site))
                .count();
            let partial = tp
                .copies
                .iter()
                .any(|c| c.parts.len() > 1 && c.parts.iter().any(|p| p.site == site));
            if partial {
                return Err(DbError::internal(format!(
                    "{site} holds a partition of {:?}; re-home it before decommission",
                    tp.name
                )));
            }
            if whole > 0 {
                if tp.copies.len() - whole == 0 {
                    return Err(DbError::Unrecoverable(format!(
                        "decommissioning {site} would drop the last copy of {:?}",
                        tp.name
                    )));
                }
                affected.push(tp.name.clone());
            }
        }
        for tp in self.tables.values_mut() {
            tp.copies
                .retain(|c| !c.parts.iter().all(|p| p.site == site));
        }
        self.addresses.remove(&site);
        for sites in self.joining.values_mut() {
            sites.remove(&site);
        }
        self.bump();
        affected.sort();
        Ok(affected)
    }

    pub fn set_coordinator_addr(&mut self, addr: &str) {
        self.coordinator_addr = Some(addr.to_string());
        self.bump();
    }

    pub fn coordinator_addr(&self) -> DbResult<&str> {
        self.coordinator_addr
            .as_deref()
            .ok_or_else(|| DbError::internal("no coordinator address"))
    }

    pub fn table(&self, name: &str) -> DbResult<&TablePlacement> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::Schema(format!("unplaced table {name:?}")))
    }

    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.keys().cloned().collect();
        v.sort();
        v
    }

    /// Sites that must receive an inserted row: those with a part whose
    /// predicate admits the stored form of the tuple. Full copies admit
    /// everything; horizontal partitions admit their slice (§3.2).
    pub fn sites_for_insert(
        &self,
        table: &str,
        user_values: &[harbor_common::Value],
    ) -> DbResult<Vec<SiteId>> {
        use harbor_common::{Timestamp, Tuple};
        let tp = self.table(table)?;
        // Predicates are over the stored tuple; timestamps are not known
        // yet, so evaluate with placeholders (partition predicates only
        // reference user columns).
        let stored = Tuple::versioned(Timestamp::ZERO, Timestamp::ZERO, user_values.to_vec());
        let mut out = Vec::new();
        for copy in &tp.copies {
            for part in &copy.parts {
                let admit = match &part.predicate {
                    None => true,
                    Some(p) => p.eval_bool(&stored)?,
                };
                if admit && !out.contains(&part.site) {
                    out.push(part.site);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// All sites holding any part of `table`.
    pub fn sites_for(&self, table: &str) -> DbResult<Vec<SiteId>> {
        let tp = self.table(table)?;
        let mut out: Vec<SiteId> = tp
            .copies
            .iter()
            .flat_map(|c| c.parts.iter().map(|p| p.site))
            .collect();
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// All tables with a part on `site`, with the part predicates.
    pub fn objects_on(&self, site: SiteId) -> Vec<(String, Option<Expr>)> {
        let mut out = Vec::new();
        for tp in self.tables.values() {
            for c in &tp.copies {
                for p in &c.parts {
                    if p.site == site {
                        out.push((tp.name.clone(), p.predicate.clone()));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The replication factor minus one: how many site failures each copy
    /// set can absorb (K of K-safety), assuming copies on distinct sites.
    pub fn k_for(&self, table: &str) -> DbResult<usize> {
        Ok(self.table(table)?.copies.len().saturating_sub(1))
    }

    /// Computes the recovery objects and predicates for the part of
    /// `table` stored on the failed site (§5.1): picks a copy whose parts
    /// all live on online sites, and intersects each part's predicate with
    /// the failed part's predicate. The resulting objects are mutually
    /// exclusive and collectively cover the failed object.
    pub fn recovery_plan(
        &self,
        failed: SiteId,
        table: &str,
        down: &HashSet<SiteId>,
    ) -> DbResult<Vec<RecoveryObject>> {
        let tp = self.table(table)?;
        // The failed part's predicate (first part on `failed` found).
        let failed_pred = tp
            .copies
            .iter()
            .flat_map(|c| c.parts.iter())
            .find(|p| p.site == failed)
            .map(|p| p.predicate.clone())
            .ok_or_else(|| DbError::internal(format!("{failed} holds no part of {table}")))?;
        // A buddy must be *current live membership* at plan time — not
        // merely "not in the caller's down set". A decommissioned site
        // lingers in stale part lists only until the catalog mutation
        // lands, and a joining site's copy is still incomplete; naming
        // either as buddy would recover from a vanished or partial
        // replica.
        let buddy_ok = |p: &Part| {
            p.site != failed
                && !down.contains(&p.site)
                && self.addresses.contains_key(&p.site)
                && !self.is_copy_joining(table, p.site)
        };
        // First copy that avoids the failed site and every down site.
        for (chosen, copy) in tp.copies.iter().enumerate() {
            if !copy.parts.iter().all(&buddy_ok) {
                continue;
            }
            // Other live full copies can answer the same ranged recovery
            // queries (their single part holds every row, so any recovery
            // predicate evaluates there); partitioned copies cannot serve a
            // whole recovery object and are not offered.
            let full_copies: Vec<SiteId> = tp
                .copies
                .iter()
                .enumerate()
                .filter(|(i, c)| {
                    *i != chosen
                        && c.parts.len() == 1
                        && c.parts[0].predicate.is_none()
                        && buddy_ok(&c.parts[0])
                })
                .map(|(_, c)| c.parts[0].site)
                .collect();
            let objects = copy
                .parts
                .iter()
                .map(|p| RecoveryObject {
                    table: table.to_string(),
                    predicate: match (&failed_pred, &p.predicate) {
                        (None, None) => None,
                        (Some(a), None) => Some(a.clone()),
                        (None, Some(b)) => Some(b.clone()),
                        (Some(a), Some(b)) => Some(a.clone().and(b.clone())),
                    },
                    buddies: std::iter::once(p.site)
                        .chain(full_copies.iter().copied().filter(|s| *s != p.site))
                        .collect(),
                })
                .collect();
            return Ok(objects);
        }
        Err(DbError::Unrecoverable(format!(
            "no live copy of {table} covers the failed part on {failed} \
             (more than K failures?)"
        )))
    }

    /// Test-only: poke the address book directly to simulate a stale
    /// catalog (copy entries outliving membership).
    #[cfg(test)]
    pub(crate) fn mutate_addresses_for_test(
        &mut self,
        f: impl FnOnce(&mut HashMap<SiteId, String>),
    ) {
        f(&mut self.addresses);
    }
}

/// One shared, runtime-mutable placement catalog.
///
/// The coordinator and the cluster facade hold clones of the same handle,
/// so a membership mutation (join, decommission, re-replication) is
/// immediately visible to transaction routing, read fail-over, and
/// recovery planning. Readers take short-lived snapshots or cloned-out
/// values — no guard ever spans an RPC (the lock-across-blocking rule).
#[derive(Clone, Default)]
pub struct SharedPlacement {
    inner: Arc<RwLock<Placement>>,
}

impl From<Placement> for SharedPlacement {
    fn from(p: Placement) -> Self {
        SharedPlacement {
            inner: Arc::new(RwLock::new(p)),
        }
    }
}

impl SharedPlacement {
    pub fn new(p: Placement) -> Self {
        p.into()
    }

    /// A point-in-time copy of the whole catalog (what a recovery run
    /// plans against).
    pub fn snapshot(&self) -> Placement {
        self.inner.read().clone()
    }

    pub fn version(&self) -> u64 {
        self.inner.read().version()
    }

    /// Runs `f` under the read lock. `f` must not block (no RPCs, no
    /// sleeps); clone out whatever outlives the call.
    pub fn read<R>(&self, f: impl FnOnce(&Placement) -> R) -> R {
        f(&self.inner.read())
    }

    /// Runs `f` under the write lock; same no-blocking contract.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut Placement) -> R) -> R {
        f(&mut self.inner.write())
    }

    pub fn address(&self, site: SiteId) -> DbResult<String> {
        self.read(|p| p.address(site).map(str::to_string))
    }

    pub fn coordinator_addr(&self) -> DbResult<String> {
        self.read(|p| p.coordinator_addr().map(str::to_string))
    }

    pub fn sites_for(&self, table: &str) -> DbResult<Vec<SiteId>> {
        self.read(|p| p.sites_for(table))
    }

    pub fn sites_for_insert(
        &self,
        table: &str,
        user_values: &[harbor_common::Value],
    ) -> DbResult<Vec<SiteId>> {
        self.read(|p| p.sites_for_insert(table, user_values))
    }

    pub fn table_names(&self) -> Vec<String> {
        self.read(|p| p.table_names())
    }

    pub fn objects_on(&self, site: SiteId) -> Vec<(String, Option<Expr>)> {
        self.read(|p| p.objects_on(site))
    }

    pub fn k_for(&self, table: &str) -> DbResult<usize> {
        self.read(|p| p.k_for(table))
    }

    pub fn is_member(&self, site: SiteId) -> bool {
        self.read(|p| p.is_member(site))
    }

    pub fn member_sites(&self) -> Vec<SiteId> {
        self.read(|p| p.member_sites())
    }

    pub fn joining_copies(&self) -> Vec<(String, SiteId)> {
        self.read(|p| p.joining_copies())
    }

    pub fn recovery_plan(
        &self,
        failed: SiteId,
        table: &str,
        down: &HashSet<SiteId>,
    ) -> DbResult<Vec<RecoveryObject>> {
        self.read(|p| p.recovery_plan(failed, table, down))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u16) -> SiteId {
        SiteId(n)
    }

    /// Registers addresses for sites 1..=n (recovery planning filters
    /// buddies against the address book, i.e. live membership).
    fn with_members(p: &mut Placement, n: u16) {
        for i in 1..=n {
            p.set_address(s(i), &format!("site-{i}"));
        }
    }

    #[test]
    fn replicated_table_recovery_uses_one_buddy() {
        let mut p = Placement::new();
        with_members(&mut p, 3);
        p.add_replicated_table("sales", &[s(1), s(2), s(3)]);
        assert_eq!(p.k_for("sales").unwrap(), 2);
        let plan = p.recovery_plan(s(1), "sales", &HashSet::new()).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].buddies[0], s(2));
        assert!(plan[0].predicate.is_none());
        // With site 2 also down, site 3 serves.
        let down: HashSet<SiteId> = [s(2)].into_iter().collect();
        let plan = p.recovery_plan(s(1), "sales", &down).unwrap();
        assert_eq!(plan[0].buddies[0], s(3));
        // All copies down: unrecoverable.
        let down: HashSet<SiteId> = [s(2), s(3)].into_iter().collect();
        assert!(matches!(
            p.recovery_plan(s(1), "sales", &down),
            Err(DbError::Unrecoverable(_))
        ));
    }

    #[test]
    fn partitioned_copy_yields_multiple_recovery_objects() {
        // The EMP example of §5.1: EMP1 full on site 1; EMP2 split by
        // employee_id over sites 2 and 3. Site 1 fails; its recovery
        // predicate is the whole table here (it held a full copy).
        let mut p = Placement::new();
        with_members(&mut p, 3);
        let id_col = 2; // first user field
        p.add_table(
            "employees",
            vec![
                Copy {
                    parts: vec![Part::full(s(1))],
                },
                Copy {
                    parts: vec![
                        Part::partition(s(2), Expr::col(id_col).lt(Expr::lit(1000i64))),
                        Part::partition(s(3), Expr::col(id_col).ge(Expr::lit(1000i64))),
                    ],
                },
            ],
        );
        let plan = p.recovery_plan(s(1), "employees", &HashSet::new()).unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].buddies[0], s(2));
        assert!(plan[0].predicate.is_some());
        assert_eq!(plan[1].buddies[0], s(3));
        // And the reverse: recover the partition on site 2 from the full
        // copy on site 1, with the partition predicate as recovery pred.
        let plan = p.recovery_plan(s(2), "employees", &HashSet::new()).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].buddies[0], s(1));
        assert!(plan[0].predicate.is_some());
    }

    #[test]
    fn recovery_plan_offers_live_full_copies_as_alternates() {
        let mut p = Placement::new();
        with_members(&mut p, 4);
        p.add_replicated_table("sales", &[s(1), s(2), s(3), s(4)]);
        let plan = p.recovery_plan(s(1), "sales", &HashSet::new()).unwrap();
        assert_eq!(plan[0].buddies[0], s(2));
        assert_eq!(plan[0].buddies[1..], vec![s(3), s(4)]);
        // Down sites are not offered.
        let down: HashSet<SiteId> = [s(3)].into_iter().collect();
        let plan = p.recovery_plan(s(1), "sales", &down).unwrap();
        assert_eq!(plan[0].buddies[0], s(2));
        assert_eq!(plan[0].buddies[1..], vec![s(4)]);
        // A partitioned copy is never an alternate: it cannot serve a whole
        // recovery object by itself.
        let id_col = 2;
        let mut p = Placement::new();
        with_members(&mut p, 4);
        p.add_table(
            "emp",
            vec![
                Copy {
                    parts: vec![Part::full(s(1))],
                },
                Copy {
                    parts: vec![Part::full(s(2))],
                },
                Copy {
                    parts: vec![
                        Part::partition(s(3), Expr::col(id_col).lt(Expr::lit(10i64))),
                        Part::partition(s(4), Expr::col(id_col).ge(Expr::lit(10i64))),
                    ],
                },
            ],
        );
        let plan = p.recovery_plan(s(1), "emp", &HashSet::new()).unwrap();
        assert_eq!(plan[0].buddies[0], s(2));
        assert!(plan[0].buddies[1..].is_empty());
    }

    #[test]
    fn objects_on_lists_site_contents() {
        let mut p = Placement::new();
        p.add_replicated_table("a", &[s(1), s(2)]);
        p.add_replicated_table("b", &[s(2), s(3)]);
        let on2 = p.objects_on(s(2));
        assert_eq!(on2.len(), 2);
        assert_eq!(on2[0].0, "a");
        assert_eq!(on2[1].0, "b");
        assert_eq!(p.objects_on(s(9)).len(), 0);
    }

    #[test]
    fn k_safety_example_from_section_3_2() {
        // 1-safe: R on S1,S2; R' on S3,S4. Failures of S1 and S3 together
        // are tolerated because at most one failure hits each relation.
        let mut p = Placement::new();
        with_members(&mut p, 4);
        p.add_replicated_table("r", &[s(1), s(2)]);
        p.add_replicated_table("r2", &[s(3), s(4)]);
        let down: HashSet<SiteId> = [s(3)].into_iter().collect();
        let plan = p.recovery_plan(s(1), "r", &down).unwrap();
        assert_eq!(plan[0].buddies[0], s(2));
        let down: HashSet<SiteId> = [s(1)].into_iter().collect();
        let plan = p.recovery_plan(s(3), "r2", &down).unwrap();
        assert_eq!(plan[0].buddies[0], s(4));
    }

    /// Regression for placement-plan staleness: a site that was
    /// decommissioned (gone from the address book) but still named in a
    /// stale part list must never be chosen as buddy or alternate, even
    /// when the caller's `down` set does not mention it — fail-over
    /// targets are filtered against live membership at plan time.
    #[test]
    fn recovery_plan_skips_decommissioned_sites() {
        let mut p = Placement::new();
        with_members(&mut p, 3);
        p.add_replicated_table("sales", &[s(1), s(2), s(3)]);
        // Simulate the stale-catalog hazard: site 2 leaves the address
        // book while its copy entry lingers (the window between the two
        // halves of a decommission, or a snapshot raced with one).
        p.mutate_addresses_for_test(|a| {
            a.remove(&s(2));
        });
        let plan = p.recovery_plan(s(1), "sales", &HashSet::new()).unwrap();
        assert_eq!(plan[0].buddies[0], s(3), "buddy must be a live member");
        assert!(
            !plan[0].buddies[1..].contains(&s(2)),
            "decommissioned site offered as alternate"
        );
        // A clean decommission removes the copy too, and k shrinks.
        let mut p = Placement::new();
        with_members(&mut p, 3);
        p.add_replicated_table("sales", &[s(1), s(2), s(3)]);
        assert_eq!(p.k_for("sales").unwrap(), 2);
        let affected = p.remove_site(s(2)).unwrap();
        assert_eq!(affected, vec!["sales".to_string()]);
        assert_eq!(p.k_for("sales").unwrap(), 1);
        let plan = p.recovery_plan(s(1), "sales", &HashSet::new()).unwrap();
        assert_eq!(plan[0].buddies[0], s(3));
    }

    /// A joining site's copy is allocated (and routable) before its data
    /// is complete; recovery planning must not hand it out as a buddy
    /// until its Phase-3 handshake finishes.
    #[test]
    fn recovery_plan_skips_joining_copies() {
        let mut p = Placement::new();
        with_members(&mut p, 2);
        p.add_replicated_table("sales", &[s(1), s(2)]);
        p.set_address(s(3), "site-3");
        p.add_full_copy("sales", s(3)).unwrap();
        assert!(p.is_copy_joining("sales", s(3)));
        let down: HashSet<SiteId> = [s(2)].into_iter().collect();
        // Only the joining copy avoids failed+down: planning must fail
        // rather than bootstrap from an incomplete replica.
        assert!(matches!(
            p.recovery_plan(s(1), "sales", &down),
            Err(DbError::Unrecoverable(_))
        ));
        // The joining site itself plans against current copies only.
        let plan = p.recovery_plan(s(3), "sales", &HashSet::new()).unwrap();
        assert_eq!(plan[0].buddies[0], s(1));
        assert_eq!(plan[0].buddies[1..], vec![s(2)]);
        // Once announced online it serves like any other copy.
        p.finish_copy_join("sales", s(3));
        let plan = p.recovery_plan(s(1), "sales", &down).unwrap();
        assert_eq!(plan[0].buddies[0], s(3));
    }

    #[test]
    fn remove_site_guards_last_copy_and_partitions() {
        let mut p = Placement::new();
        with_members(&mut p, 3);
        p.add_replicated_table("solo", &[s(1)]);
        assert!(matches!(
            p.remove_site(s(1)),
            Err(DbError::Unrecoverable(_))
        ));
        let id_col = 2;
        let mut p = Placement::new();
        with_members(&mut p, 3);
        p.add_table(
            "emp",
            vec![
                Copy {
                    parts: vec![Part::full(s(1))],
                },
                Copy {
                    parts: vec![
                        Part::partition(s(2), Expr::col(id_col).lt(Expr::lit(10i64))),
                        Part::partition(s(3), Expr::col(id_col).ge(Expr::lit(10i64))),
                    ],
                },
            ],
        );
        // Site 2 holds a piece of a multi-site copy: refuse until re-homed.
        assert!(p.remove_site(s(2)).is_err());
        // Site 1's whole copy can go (the partitioned copy remains).
        assert_eq!(p.remove_site(s(1)).unwrap(), vec!["emp".to_string()]);
        assert!(!p.is_member(s(1)));
    }

    #[test]
    fn catalog_mutations_bump_version() {
        let p = SharedPlacement::default();
        let v0 = p.version();
        p.mutate(|pl| pl.set_address(s(1), "a"));
        p.mutate(|pl| pl.add_replicated_table("t", &[s(1)]));
        assert!(p.version() > v0);
        let v1 = p.version();
        p.mutate(|pl| {
            pl.set_address(s(2), "b");
            pl.add_full_copy("t", s(2))
        })
        .unwrap();
        assert!(p.version() > v1);
        assert_eq!(p.joining_copies(), vec![("t".to_string(), s(2))]);
        let snap = p.snapshot();
        p.mutate(|pl| pl.finish_copy_join("t", s(2)));
        // The snapshot is a point in time, not a live view.
        assert!(snap.is_copy_joining("t", s(2)));
        assert!(p.joining_copies().is_empty());
        assert_eq!(p.member_sites(), vec![s(1), s(2)]);
    }
}
