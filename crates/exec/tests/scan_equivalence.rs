//! Equivalence properties for the one page visitor.
//!
//! Every read reaches pages through `harbor_exec::scan`'s visitor and leaves
//! through a sink: decoded tuples (`SeqScan`), tuples with their record ids
//! (`scan_rids`), wire bytes — the full row or the `(tuple_id,
//! deletion_time)` projection, with or without a predicate (`ScanRow::ship`)
//! — and index probes (`index_lookup`). Whatever the sink, *what* a read at
//! mode M with bounds B returns is fixed by one reference, written here
//! from the scalar [`ReadMode::admit`] alone: decode every occupied slot of
//! every page, admit it, re-apply the bounds, apply the predicate. Pages
//! carry holes, uncommitted rows and rows deleted after the read time, with
//! zone maps present (flushed) or computed lazily.
//!
//! Every sink decodes by transcoding (`transcode_fixed_to_wire`), so the
//! reference decodes another way: a `Value` at a time, by the fixed-width
//! codec below, and builds its rows from those values.
//!
//! Two inputs load a table through the ordinary transaction path instead
//! and check a `SeqScan` against a straight computation over what was
//! loaded: a historical sum across a later delete, and a `Filter` over a
//! table that spans segments.
//!
//! The wire sink has an inverse on the apply side, `transcode_wire_to_fixed`
//! (receive buffer → page slot); its reference is `read_wire`, then the same
//! codec's encoder, at the end of this file.

use harbor_common::codec::{Decoder, Encoder};
use harbor_common::schema::COL_DELETION_TS;
use harbor_common::tuple::{transcode_fixed_to_wire, transcode_wire_to_fixed};
use harbor_common::{
    DbError, DbResult, FieldType, PageId, RecordId, SiteId, StorageConfig, TableId, Timestamp,
    TransactionId, Tuple, TupleDesc, Value,
};
use harbor_engine::{Engine, EngineOptions, StepLogging};
use harbor_exec::{
    collect, index_lookup, op::Operator, run_delete, scan_pages, scan_rids, visit_page, ArithOp,
    CmpOp, Columns, Expr, Filter, ReadMode, ScanRow, SeqScan,
};
use harbor_storage::{BufferPool, ScanBounds};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Commit times are drawn from a small range so that a read time or a bound
/// often *equals* a row's timestamp — the boundary every rule turns on.
const T_MAX: u64 = 6;

/// Insertion times: committed small values plus in-flight (uncommitted).
fn ins_ts() -> impl Strategy<Value = Timestamp> {
    prop_oneof![
        (1u64..=T_MAX).prop_map(Timestamp),
        Just(Timestamp::UNCOMMITTED),
    ]
}

/// Deletion times: mostly live, sometimes deleted at a small time (which a
/// historical mode with an earlier time must mask back to "not deleted").
fn del_ts() -> impl Strategy<Value = Timestamp> {
    prop_oneof![Just(Timestamp::ZERO), (1u64..=T_MAX).prop_map(Timestamp),]
}

/// One stored row: version pair, user payload (ASCII so the fixed-str round
/// trip is exact), and whether the row is removed again to leave a hole.
type Row = (Timestamp, Timestamp, i32, String, bool);

/// A stretch of rows: either each with its own version pair, or — so that
/// whole pages are uniformly visible or uniformly dead and the zone-map
/// shortcuts fire — all sharing one (or one of two), but for a stray row in 64.
fn run() -> impl Strategy<Value = Vec<Row>> {
    let payload = || {
        (
            any::<i32>(),
            proptest::collection::vec(0x20u8..0x7f, 0..=12)
                .prop_map(|b| String::from_utf8(b).unwrap()),
            (0u8..6).prop_map(|n| n == 0),
        )
    };
    let flat = |(ins, del, (v, pad, hole))| (ins, del, v, pad, hole);
    prop_oneof![
        proptest::collection::vec((ins_ts(), del_ts(), payload()), 1..150)
            .prop_map(move |rows| rows.into_iter().map(flat).collect()),
        (
            proptest::collection::vec(((1u64..=T_MAX).prop_map(Timestamp), del_ts()), 1..3),
            proptest::collection::vec((0u8..64, ins_ts(), del_ts(), payload()), 80..250)
        )
            .prop_map(move |(shared, rows)| rows
                .into_iter()
                .map(|(pick, ins, del, p)| match pick {
                    0 => flat((ins, del, p)),
                    n => {
                        let (ins, del) = shared[n as usize % shared.len()];
                        flat((ins, del, p))
                    }
                })
                .collect()),
    ]
}

fn rows() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(run(), 1..4).prop_map(|runs| runs.concat())
}

/// Unbounded half the time (the whole-page fast path needs no bounds);
/// otherwise any mix of the three bounds, with or without recovery Phase
/// 1's "or uncommitted" disjunct.
fn bounds() -> impl Strategy<Value = ScanBounds> {
    let bound = || proptest::option::of((0u64..=T_MAX + 1).prop_map(Timestamp));
    prop_oneof![
        Just(ScanBounds::all()),
        (bound(), bound(), bound(), proptest::option::of(0u32..3)).prop_map(
            |(ins_at_or_before, ins_after, del_after, uncommitted_from_segment)| ScanBounds {
                ins_at_or_before,
                ins_after,
                del_after,
                uncommitted_from_segment,
            }
        ),
    ]
}

/// No predicate, or one over a user column.
fn predicate() -> impl Strategy<Value = Option<Expr>> {
    proptest::option::of(any::<i32>().prop_map(|v| Expr::col(3).lt(Expr::lit(v))))
}

/// Builds a one-table engine holding `rows`, written with raw timestamps
/// (bypassing commit-time validation so uncommitted and already-deleted
/// rows land on pages like they do mid-flight) and annotated per segment as
/// the commit path would, so pruning is live. Keys wrap at `modulus`, so one
/// tuple id can appear in several versions. `flush` leaves every page with
/// a stored zone-map entry; otherwise scans compute them lazily.
fn build(rows: &[Row], modulus: i64, flush: bool) -> (Arc<Engine>, TableId, std::path::PathBuf) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("harbor-scan-equiv").join(format!(
        "{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let e = Engine::open(
        &dir,
        EngineOptions::harbor(SiteId(0), StorageConfig::for_tests()),
    )
    .unwrap();
    let def = e
        .create_table(
            "t",
            vec![
                ("id".into(), FieldType::Int64),
                ("v".into(), FieldType::Int32),
                ("pad".into(), FieldType::FixedStr(12)),
            ],
        )
        .unwrap();
    let heap = e.pool().table(def.id).unwrap();
    let mut holes = Vec::new();
    for (i, (ins, del, v, pad, hole)) in rows.iter().enumerate() {
        let tup = Tuple::versioned(
            *ins,
            *del,
            vec![
                Value::Int64((i as i64) % modulus),
                Value::Int32(*v),
                Value::Str(pad.clone()),
            ],
        );
        let mut stored = vec![0u8; heap.tuple_size()];
        tup.write_fixed(heap.desc(), &mut stored).unwrap();
        let rid = e.pool().insert_tuple_bytes(None, def.id, &stored).unwrap();
        if ins.is_valid_commit_time() {
            heap.note_insert_commit(rid.page.page_no, *ins);
        }
        if del.is_valid_commit_time() {
            heap.note_delete(rid.page.page_no, *del);
        }
        if *hole {
            holes.push(rid);
        }
    }
    for rid in holes {
        e.pool().remove_tuple(None, rid).unwrap();
    }
    if flush {
        e.pool().flush_all().unwrap();
    }
    (e, def.id, dir)
}

/// The reference decoder: one stored row, a `Value` at a time.
fn decode_fixed(desc: &TupleDesc, bytes: &[u8]) -> DbResult<Vec<Value>> {
    let mut dec = Decoder::new(bytes);
    let mut values = Vec::with_capacity(desc.len());
    for ty in desc.types() {
        values.push(match *ty {
            FieldType::Int32 => Value::Int32(dec.get_i32()?),
            FieldType::Int64 => Value::Int64(dec.get_i64()?),
            FieldType::Time => Value::Time(Timestamp(dec.get_u64()?)),
            FieldType::FixedStr(n) => {
                let raw = dec.take(n as usize)?;
                let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
                let s = std::str::from_utf8(&raw[..end])
                    .map_err(|_| DbError::corrupt("invalid utf-8 in fixed string"))?;
                Value::Str(s.to_string())
            }
        });
    }
    Ok(values)
}

/// The reference encoder, its inverse: each value at its field's offset,
/// strings NUL-padded to their width.
fn encode_fixed(desc: &TupleDesc, values: &[Value], out: &mut [u8]) -> DbResult<()> {
    desc.check(values)?;
    for (i, v) in values.iter().enumerate() {
        let at = &mut out[desc.field_offset(i)..][..desc.field_type(i).width()];
        match v {
            Value::Int32(x) => at.copy_from_slice(&x.to_le_bytes()),
            Value::Int64(x) => at.copy_from_slice(&x.to_le_bytes()),
            Value::Time(t) => at.copy_from_slice(&t.0.to_le_bytes()),
            Value::Str(s) => {
                at.fill(0);
                at[..s.len()].copy_from_slice(s.as_bytes());
            }
        }
    }
    Ok(())
}

/// The specification: every occupied slot of *every* page (no pruning),
/// decoded first, then admitted by the scalar rule, the bounds re-applied
/// (§5.4.1: insertion checks on the stored time — an uncommitted row passes
/// `ins_after` only under Phase 1's disjunct — and the deletion check on
/// the masked time), then the predicate.
fn reference(
    pool: &Arc<BufferPool>,
    table: TableId,
    mode: ReadMode,
    bounds: &ScanBounds,
    pred: Option<&Expr>,
) -> Vec<(RecordId, Tuple)> {
    let heap = pool.table(table).unwrap();
    let mut out = Vec::new();
    for pid in heap.all_page_ids() {
        pool.with_page(None, pid, |page| {
            for slot in page.occupied_slots() {
                let mut values = decode_fixed(heap.desc(), page.read(slot)?)?;
                let ins = values[0].as_time()?;
                let Some(del) = mode.admit(ins, values[COL_DELETION_TS].as_time()?) else {
                    continue;
                };
                let in_bounds = bounds.ins_at_or_before.is_none_or(|t| ins <= t)
                    && bounds.ins_after.is_none_or(|t| {
                        let or_uncommitted = bounds.uncommitted_from_segment.is_some();
                        ins > t && (or_uncommitted || !ins.is_uncommitted())
                    })
                    && bounds.del_after.is_none_or(|t| del > t);
                if !in_bounds {
                    continue;
                }
                values[COL_DELETION_TS] = Value::Time(del);
                let tup = Tuple::new(values);
                if pred.is_none_or(|p| p.eval_bool(&tup).unwrap()) {
                    out.push((RecordId::new(pid, slot), tup));
                }
            }
            Ok(())
        })
        .unwrap();
    }
    out
}

/// Wire bytes of `tuples` under the materialize-then-encode scheme.
fn wire_bytes<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Vec<u8> {
    let mut enc = Encoder::new();
    for t in tuples {
        t.write_wire(&mut enc);
    }
    enc.into_bytes()
}

/// What the wire sink writes for a whole scan.
fn shipped(
    pool: &Arc<BufferPool>,
    table: TableId,
    mode: ReadMode,
    bounds: &ScanBounds,
    pred: Option<&Expr>,
    ids_and_deletions_only: bool,
) -> Vec<u8> {
    let heap = pool.table(table).unwrap();
    let mut enc = Encoder::new();
    for pid in scan_pages(&heap, bounds) {
        visit_page(pool, &heap, pid, mode, bounds, |row| {
            row.ship(pred, ids_and_deletions_only, &mut enc)?;
            Ok(())
        })
        .unwrap();
    }
    enc.into_bytes()
}

const LOCKER: u64 = 7777;

fn locker() -> TransactionId {
    TransactionId::from_parts(SiteId(0), LOCKER)
}

fn all_modes(hist_t: u64) -> Vec<ReadMode> {
    vec![
        ReadMode::Current(locker()),
        ReadMode::Historical(Timestamp(hist_t)),
        ReadMode::SeeDeleted,
        ReadMode::SeeDeletedLocked(locker()),
        ReadMode::SeeDeletedHistorical(Timestamp(hist_t)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every sink of the visitor ≡ the reference, for every mode and bound:
    /// same rows, same order, same masked deletion times, same record ids,
    /// and — for the wire sinks — the same bytes as materializing the
    /// reference's tuples and encoding those.
    #[test]
    fn every_sink_matches_the_reference(
        rows in rows(),
        hist_t in 0u64..=T_MAX + 1,
        bounds in bounds(),
        pred in predicate(),
        flush in any::<bool>(),
    ) {
        let (e, table, dir) = build(&rows, i64::MAX, flush);
        let pool = e.pool().clone();
        for mode in all_modes(hist_t) {
            let plain = reference(&pool, table, mode, &bounds, None);
            let filtered = reference(&pool, table, mode, &bounds, pred.as_ref());

            // Decode sink.
            let mut scan = SeqScan::with_bounds(pool.clone(), table, mode, bounds).unwrap();
            let got = collect(&mut scan).unwrap();
            prop_assert!(got.iter().eq(plain.iter().map(|(_, t)| t)), "SeqScan under {:?}", mode);

            // Rid sink, with and without a predicate.
            let got = scan_rids(&pool, table, mode, bounds, |_| Ok(true)).unwrap();
            prop_assert_eq!(&got, &plain, "scan_rids under {:?}", mode);
            let got = scan_rids(&pool, table, mode, bounds, |t| {
                pred.as_ref().map_or(Ok(true), |p| p.eval_bool(t))
            })
            .unwrap();
            prop_assert_eq!(&got, &filtered, "scan_rids + predicate under {:?}", mode);

            // Wire sinks: full row and (tuple_id, deletion_time), each with
            // and without the predicate.
            for (want, p) in [(&plain, None), (&filtered, pred.as_ref())] {
                prop_assert_eq!(
                    shipped(&pool, table, mode, &bounds, p, false),
                    wire_bytes(want.iter().map(|(_, t)| t)),
                    "wire/full under {:?}, predicate {:?}", mode, p
                );
                let id_del: Vec<Tuple> = want
                    .iter()
                    .map(|(_, t)| Tuple::new(vec![t.get(2), t.get(1)]))
                    .collect();
                prop_assert_eq!(
                    shipped(&pool, table, mode, &bounds, p, true),
                    wire_bytes(&id_del),
                    "wire/id-del under {:?}, predicate {:?}", mode, p
                );
            }
            e.locks().release_all(locker());
        }
        drop((e, pool));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn next_shim_matches_batched_drain(rows in rows(), hist_t in 0u64..=T_MAX + 1) {
        let (e, table, dir) = build(&rows, i64::MAX, false);
        let pool = e.pool().clone();
        for mode in [
            ReadMode::SeeDeleted,
            ReadMode::Historical(Timestamp(hist_t)),
        ] {
            let mut batched = SeqScan::new(pool.clone(), table, mode).unwrap();
            let via_batch = collect(&mut batched).unwrap();
            let mut one = SeqScan::new(pool.clone(), table, mode).unwrap();
            one.open().unwrap();
            let mut via_next = Vec::new();
            while let Some(t) = one.next().unwrap() {
                via_next.push(t);
            }
            one.close();
            prop_assert_eq!(via_batch, via_next);
        }
        drop((e, pool));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Index point reads ≡ the reference filtered by key, for present,
    /// absent, multi-version, deleted and uncommitted keys, under every
    /// mode. The rows land behind the engine's back, so the first probe
    /// exercises the lazy batched rebuild too.
    #[test]
    fn index_reads_match_scan_filter(rows in rows(), hist_t in 0u64..=T_MAX + 1) {
        let (e, table, dir) = build(&rows, 8, false);
        e.index(table).unwrap().invalidate();
        let pool = e.pool().clone();
        let rebuilds_before = pool.metrics().snapshot().index_rebuilds;
        for mode in all_modes(hist_t) {
            for key in [0i64, 3, 7, 8, -1, 100] {
                let by_key = Expr::col(2).eq(Expr::lit(key));
                let mut expected = reference(&pool, table, mode, &ScanBounds::all(), Some(&by_key));
                let mut got = index_lookup(&e, table, key, mode).unwrap();
                // Index probes return record-id order, the scan page order:
                // compare as multisets.
                expected.sort_by_key(|(rid, _)| (rid.page.page_no, rid.slot));
                got.sort_by_key(|(rid, _)| (rid.page.page_no, rid.slot));
                prop_assert_eq!(&expected, &got, "key {} under {:?}", key, mode);
                e.locks().release_all(locker());
            }
        }
        prop_assert!(
            pool.metrics().snapshot().index_rebuilds > rebuilds_before,
            "cold probe must have rebuilt the index"
        );
        drop((e, pool));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Rows of the committed-table inputs below.
const N_ORDERS: i64 = 600;

/// The amount of order `o`, a value in `0..50`.
fn amount(o: i64) -> i64 {
    o * 7 % 50
}

/// An engine holding `orders(id, amount)` with [`N_ORDERS`] rows inserted
/// and committed at time 2 through the ordinary transaction path.
fn committed_orders(name: &str) -> (Arc<Engine>, TableId, std::path::PathBuf) {
    let dir = std::env::temp_dir()
        .join("harbor-scan-equiv")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let e = Engine::open(
        &dir,
        EngineOptions::harbor(SiteId(0), StorageConfig::for_tests()),
    )
    .unwrap();
    let def = e
        .create_table(
            "orders",
            vec![
                ("id".into(), FieldType::Int64),
                ("amount".into(), FieldType::Int32),
            ],
        )
        .unwrap();
    let t = TransactionId::from_parts(SiteId(0), 1);
    e.begin(t).unwrap();
    for o in 0..N_ORDERS {
        let row = vec![Value::Int64(o), Value::Int32(amount(o) as i32)];
        e.insert(t, def.id, row).unwrap();
    }
    e.commit(t, Timestamp(2), StepLogging::OFF).unwrap();
    (e, def.id, dir)
}

/// A historical read is immutable: the sum of a column as of time 2 is the
/// same before and after a later delete commits, and the read at the
/// delete's commit time sees the rows go.
#[test]
fn a_historical_sum_survives_a_later_delete() {
    let (e, orders, dir) = committed_orders("hist-sum");
    let sum_at = |t: u64| -> i64 {
        let mode = ReadMode::Historical(Timestamp(t));
        let mut scan = SeqScan::new(e.pool().clone(), orders, mode).unwrap();
        let rows = collect(&mut scan).unwrap();
        rows.iter().map(|row| row.get(3).as_i64().unwrap()).sum()
    };
    let before = sum_at(2);
    assert_eq!(before, (0..N_ORDERS).map(amount).sum::<i64>());
    let t = TransactionId::from_parts(SiteId(0), 2);
    e.begin(t).unwrap();
    run_delete(&e, t, orders, &Expr::col(3).ge(Expr::lit(40))).unwrap();
    e.commit(t, Timestamp(5), StepLogging::OFF).unwrap();
    assert_eq!(sum_at(2), before, "an old snapshot does not move");
    let kept = (0..N_ORDERS).map(amount).filter(|a| *a < 40).sum::<i64>();
    assert_eq!(sum_at(5), kept);
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Filter` over a historical `SeqScan` of a table that spans several
/// segments keeps exactly the rows a straight computation picks.
#[test]
fn a_filter_over_a_segmented_table_keeps_what_it_should() {
    let (e, orders, dir) = committed_orders("filter-segments");
    assert!(e.pool().table(orders).unwrap().num_segments() >= 2);
    let scan = SeqScan::new(e.pool().clone(), orders, ReadMode::Historical(Timestamp(2))).unwrap();
    let mut filter = Filter::new(Box::new(scan), Expr::col(3).lt(Expr::lit(10)));
    let ids: Vec<i64> = collect(&mut filter)
        .unwrap()
        .iter()
        .map(|row| row.get(2).as_i64().unwrap())
        .collect();
    let expected: Vec<i64> = (0..N_ORDERS).filter(|o| amount(*o) < 10).collect();
    assert_eq!(ids, expected);
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stored schema over every field type, and a row that conforms to it
/// (ASCII strings, so the fixed-width round trip is exact).
fn schema_and_row() -> impl Strategy<Value = (TupleDesc, Tuple)> {
    let field = prop_oneof![
        Just(FieldType::Int32),
        Just(FieldType::Int64),
        Just(FieldType::Time),
        (1u16..24).prop_map(FieldType::FixedStr),
    ];
    proptest::collection::vec(field, 1..8).prop_flat_map(|types| {
        let values: Vec<BoxedStrategy<Value>> = types
            .iter()
            .map(|ty| match *ty {
                FieldType::Int32 => any::<i32>().prop_map(Value::Int32).boxed(),
                FieldType::Int64 => any::<i64>().prop_map(Value::Int64).boxed(),
                FieldType::Time => any::<u64>().prop_map(|t| Value::Time(Timestamp(t))).boxed(),
                FieldType::FixedStr(n) => proptest::collection::vec(0x20u8..0x7f, 0..=n as usize)
                    .prop_map(|b| Value::Str(String::from_utf8(b).unwrap()))
                    .boxed(),
            })
            .collect();
        (values, any::<u64>(), any::<u64>()).prop_map(move |(user, ins, del)| {
            let fields = types.iter().map(|ty| ("f", *ty)).collect();
            (
                TupleDesc::with_version_columns(fields),
                Tuple::versioned(Timestamp(ins), Timestamp(del), user),
            )
        })
    })
}

/// The specification of `transcode_wire_to_fixed`: materialize, then encode
/// a value at a time.
fn wire_to_fixed_reference(desc: &TupleDesc, wire: &[u8]) -> DbResult<(Vec<u8>, usize)> {
    let mut dec = Decoder::new(wire);
    let tuple = Tuple::read_wire(&mut dec)?;
    let mut stored = vec![0xaau8; desc.byte_width()];
    encode_fixed(desc, &tuple.values(), &mut stored)?;
    Ok((stored, dec.remaining()))
}

fn wire_to_fixed(desc: &TupleDesc, wire: &[u8]) -> DbResult<(Vec<u8>, usize)> {
    let mut dec = Decoder::new(wire);
    // A slot may hold a removed row's bytes: all of them are overwritten.
    let mut stored = vec![0x55u8; desc.byte_width()];
    transcode_wire_to_fixed(desc, &mut dec, &mut stored)?;
    Ok((stored, dec.remaining()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Receive buffer → slot ≡ `read_wire` + the reference encoder, for every
    /// field type; it leaves the decoder at the next row, `write_fixed` of the
    /// row in memory writes the same slot, and shipping the slot again
    /// (`transcode_fixed_to_wire`) gives the wire bytes it came from; the
    /// reference decoder reads the row's values back out of it.
    #[test]
    fn wire_to_slot_matches_materialize_then_encode((desc, tuple) in schema_and_row()) {
        let mut wire = wire_bytes([&tuple]);
        let row_len = wire.len();
        wire.extend_from_slice(b"next row");
        let (stored, left) = wire_to_fixed(&desc, &wire).unwrap();
        prop_assert_eq!((&stored, left), (&wire_to_fixed_reference(&desc, &wire).unwrap().0, 8));
        let mut again = vec![0x33u8; desc.byte_width()];
        tuple.write_fixed(&desc, &mut again).unwrap();
        prop_assert_eq!(&again, &stored);
        prop_assert_eq!(decode_fixed(&desc, &stored).unwrap(), tuple.values());
        let mut back = Encoder::new();
        transcode_fixed_to_wire(&desc, &stored, tuple.deletion_ts().unwrap(), &mut back).unwrap();
        prop_assert_eq!(back.as_slice(), &wire[..row_len]);
    }

    /// On bytes that are not a row of the schema — cut short, a byte off, a
    /// field or a string too many — the two still agree on whether there is
    /// a row and which, and the transcoder's refusal is `Corrupt`, not a
    /// panic and not a row.
    #[test]
    fn wire_to_slot_refuses_what_the_reference_refuses(
        (desc, tuple) in schema_and_row(),
        cut in 1usize..64,
        at in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let wire = wire_bytes([&tuple]);
        let truncated = wire[..wire.len().saturating_sub(cut)].to_vec();
        let mut mutated = wire.clone();
        mutated[at % wire.len()] ^= flip;
        let mut wider = tuple.values();
        wider.push(Value::Int32(7));
        let over_long = wire_bytes([&Tuple::new(wider)]);
        let mut long_string = tuple.values();
        long_string.push(Value::Str("x".repeat(9)));
        let long_string = wire_bytes([&Tuple::new(long_string)]);
        let mut fields: Vec<(&str, FieldType)> =
            (2..desc.len()).map(|i| ("f", desc.field_type(i))).collect();
        fields.push(("s", FieldType::FixedStr(8)));
        let with_string = TupleDesc::with_version_columns(fields);
        for (desc, bytes, must_fail) in [
            (&desc, &truncated, true),
            (&desc, &over_long, true),
            (&with_string, &long_string, true),
            (&desc, &mutated, false),
        ] {
            let got = wire_to_fixed(desc, bytes);
            match (&got, wire_to_fixed_reference(desc, bytes)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got, &want),
                (Err(e), Err(_)) => prop_assert!(e.is_corrupt(), "{}", e),
                (got, want) => prop_assert!(false, "{:?} against {:?}", got, want),
            }
            prop_assert!(!(must_fail && got.is_ok()));
        }
    }
}

/// A stored row as raw slot bytes over every field type, numbers often
/// small so comparisons meet, strings empty, full-width, padded or not
/// UTF-8 — and the time it is read at, which masks a deletion after it.
fn slot_and_mask() -> impl Strategy<Value = (TupleDesc, Vec<u8>, Timestamp)> {
    let field = prop_oneof![
        Just(FieldType::Int32),
        Just(FieldType::Int64),
        Just(FieldType::Time),
        (1u16..10).prop_map(FieldType::FixedStr),
    ];
    proptest::collection::vec(field, 1..6).prop_flat_map(|types| {
        let fields: Vec<(&str, FieldType)> = types.iter().map(|ty| ("f", *ty)).collect();
        let desc = TupleDesc::with_version_columns(fields);
        let raw: Vec<BoxedStrategy<Vec<u8>>> = desc
            .types()
            .iter()
            .enumerate()
            .map(|(i, ty)| match *ty {
                FieldType::Time if i < 2 => (0u64..=T_MAX)
                    .prop_map(|t| t.to_le_bytes().to_vec())
                    .boxed(),
                FieldType::Int32 => prop_oneof![any::<i32>(), -3i32..3]
                    .prop_map(|v| v.to_le_bytes().to_vec())
                    .boxed(),
                FieldType::Int64 => prop_oneof![any::<i64>(), -3i64..3]
                    .prop_map(|v| v.to_le_bytes().to_vec())
                    .boxed(),
                FieldType::Time => prop_oneof![any::<u64>(), 0u64..3]
                    .prop_map(|v| v.to_le_bytes().to_vec())
                    .boxed(),
                FieldType::FixedStr(n) => fixed_str(n as usize).boxed(),
            })
            .collect();
        (raw, 0u64..=T_MAX + 1)
            .prop_map(move |(raw, read_at)| (desc.clone(), raw.concat(), Timestamp(read_at)))
    })
}

/// A stored string of width `n`: empty, full width, NUL-padded, or with a
/// byte that is not UTF-8.
fn fixed_str(n: usize) -> impl Strategy<Value = Vec<u8>> {
    let ascii = move |len: usize| proptest::collection::vec(0x20u8..0x7f, len..=len);
    prop_oneof![
        Just(vec![0u8; n]),
        ascii(n),
        (0..n).prop_flat_map(move |len| ascii(len).prop_map(move |mut b| {
            b.resize(n, 0);
            b
        })),
        (ascii(n), 0..n, 0x80u8..=0xff).prop_map(|(mut b, at, bad)| {
            b[at] = bad;
            b
        }),
    ]
}

/// Every operator, over columns of the row (one past its end too) and
/// literals of every type, small numbers and zero among them.
fn expr(cols: usize) -> BoxedStrategy<Expr> {
    let literal = prop_oneof![
        (-3i32..3).prop_map(Value::Int32),
        any::<i64>().prop_map(Value::Int64),
        (-3i64..3).prop_map(Value::Int64),
        (0u64..=T_MAX + 1).prop_map(|t| Value::Time(Timestamp(t))),
        proptest::collection::vec(0x61u8..0x64, 0..3)
            .prop_map(|b| Value::Str(String::from_utf8(b).unwrap())),
    ];
    let leaf = prop_oneof![
        (0..cols + 1).prop_map(Expr::Col),
        literal.prop_map(Expr::Lit)
    ];
    let cmp = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
    .boxed();
    let arith = prop_oneof![
        Just(ArithOp::Add),
        Just(ArithOp::Sub),
        Just(ArithOp::Mul),
        Just(ArithOp::Div),
        Just(ArithOp::Mod),
    ]
    .boxed();
    leaf.prop_recursive(4, 32, 2, move |inner| {
        prop_oneof![
            (cmp.clone(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Cmp(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (arith.clone(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Arith(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(Expr::not),
        ]
    })
}

/// The decoded row, but a column whose stored string is not UTF-8 reads as
/// the decode's refusal of it: the row a decode a column at a time would
/// give, for a slot `ScanRow::decode` refuses whole.
struct Refusing {
    row: Tuple,
    refused: Vec<usize>,
}

impl Columns for Refusing {
    fn column(&self, i: usize) -> DbResult<Value> {
        if self.refused.contains(&i) {
            return Err(DbError::corrupt("invalid utf-8 in fixed string"));
        }
        self.row.try_get(i)
    }
}

/// What evaluating `e` on `row`'s decoded row gives; a column the decode
/// refuses is refused when it is read.
fn eval_decoded(e: &Expr, row: &ScanRow<'_>) -> DbResult<Value> {
    let Err(refusal) = row.decode() else {
        return e.eval(&row.decode().unwrap());
    };
    assert!(refusal.is_corrupt(), "{refusal}");
    let mut blanked = row.bytes.to_vec();
    let mut refused = Vec::new();
    for (i, ty) in row.desc.types().iter().enumerate() {
        let at = row.desc.field_offset(i);
        let field = &mut blanked[at..at + ty.width()];
        if matches!(ty, FieldType::FixedStr(_)) && std::str::from_utf8(field).is_err() {
            field.fill(0);
            refused.push(i);
        }
    }
    let row = ScanRow {
        bytes: &blanked,
        ..*row
    };
    e.eval(&Refusing {
        row: row.decode().unwrap(),
        refused,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One evaluator, two ways of reading a column: on the slot, an
    /// expression gives what it gives on the decoded row — the same value,
    /// or an error of the same variant and words — for every operator,
    /// `/ 0` and `% 0`, a column past the end, strings of every shape and
    /// the deletion column masked by a read before the stored deletion.
    #[test]
    fn a_predicate_on_the_slot_is_the_predicate_on_the_decoded_row(
        (desc, bytes, read_at) in slot_and_mask(),
        e in expr(8),
    ) {
        let stored = Timestamp(u64::from_le_bytes(bytes[8..16].try_into().unwrap()));
        let del = ReadMode::SeeDeletedHistorical(read_at)
            .admit(Timestamp::ZERO, stored)
            .unwrap();
        let row = ScanRow {
            rid: RecordId::new(PageId::new(TableId(1), 1), 0),
            desc: &desc,
            bytes: &bytes,
            del,
        };
        let got = e.eval(&row);
        let want = eval_decoded(&e, &row);
        match (&got, &want) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "{}", e),
            (Err(got), Err(want)) => {
                prop_assert_eq!(
                    std::mem::discriminant(got),
                    std::mem::discriminant(want),
                    "{} on {}", e, desc
                );
                prop_assert_eq!(got.to_string(), want.to_string());
            }
            _ => prop_assert!(false, "{}: {:?} on the slot, {:?} decoded", e, got, want),
        }
    }
}
