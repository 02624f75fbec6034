//! Per-layer timings that need no cluster: one layer at a time, alone, on
//! the same inputs the workloads use. Taken once per traced run, outside
//! every timed window.

use crate::gen::{ingest_schedule, paper_row, Rng};
use crate::rig::{db, secs, Res};
use crate::stats::median;
use harbor::TableSpec;
use harbor_common::codec::{Decoder, Encoder};
use harbor_common::{
    DbError, DiskProfile, Metrics, SiteId, StorageConfig, Timestamp, TransactionId, Tuple,
};
use harbor_engine::{Engine, EngineOptions, StepLogging};
use harbor_front::{FnHandler, FrontClient, FrontConfig, FrontServer};
use harbor_net::{TcpTransport, Transport};
use harbor_wal::{GroupCommit, LogManager, LogPayload, LogRecord};
use std::path::Path;
use std::time::Instant;

/// `wal.force_ms`: one `append_forced` on a scratch log with the
/// workload's disk profile.
pub fn wal_force_ms(dir: &Path, disk: DiskProfile) -> Res<f64> {
    const FORCES: usize = 40;
    let log = LogManager::open(
        dir.join("scratch.log"),
        GroupCommit::enabled(),
        disk,
        Metrics::new(),
    );
    let log = db(log, "open scratch log")?;
    let tid = TransactionId::from_parts(SiteId(0), 1);
    let mut ms = Vec::with_capacity(FORCES);
    for i in 0..FORCES as u64 {
        let rec = LogRecord::new(
            tid,
            harbor_wal::Lsn::NONE,
            LogPayload::Commit {
                commit_time: Timestamp(i + 1),
            },
        );
        let t = Instant::now();
        db(log.append_forced(&rec), "append_forced")?;
        ms.push(secs(t) * 1e3);
    }
    Ok(median(&ms))
}

/// `engine.local_txn_us`: the loading mix's rows through a standalone
/// `Engine` — begin, insert, prepare, commit — with no network and no
/// coordinator: the floor under `dist.*_us`.
pub fn engine_local_txn_us(dir: &Path, seed: u64) -> Res<f64> {
    const TXNS: usize = 2000;
    let storage = StorageConfig {
        disk: DiskProfile::fast(),
        ..StorageConfig::default()
    };
    let engine = db(
        Engine::open(
            dir.join("engine"),
            EngineOptions::harbor(SiteId(9), storage),
        ),
        "open engine",
    )?;
    let spec = TableSpec::paper_table("t");
    let def = db(
        engine.create_table(&spec.name, spec.user_fields),
        "create table",
    )?;
    let schedule = ingest_schedule(&mut Rng::new(seed, 0xE), 0, TXNS);
    let mut us = Vec::with_capacity(TXNS);
    for (i, txn) in schedule.iter().enumerate() {
        let Some(id) = txn.insert else { continue };
        let tid = TransactionId::from_parts(SiteId(0), i as u64 + 1);
        let at = Timestamp(i as u64 + 1);
        let t = Instant::now();
        db(engine.begin(tid), "begin")?;
        db(engine.insert(tid, def.id, paper_row(id)), "insert")?;
        db(engine.prepare(tid, at, StepLogging::OFF), "prepare")?;
        db(engine.commit(tid, at, StepLogging::OFF), "commit")?;
        us.push(secs(t) * 1e6);
    }
    Ok(median(&us))
}

/// `common.tuple_codec_ns_per_row`: one stored paper row through the wire
/// codec and back.
pub fn tuple_codec_ns_per_row() -> Res<f64> {
    const ROWS: i64 = 20_000;
    const REPS: usize = 5;
    let rows: Vec<Tuple> = (0..ROWS)
        .map(|id| Tuple::versioned(Timestamp(1), Timestamp::ZERO, paper_row(id)))
        .collect();
    let mut ns = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        let mut enc = Encoder::with_capacity(ROWS as usize * 96);
        for row in &rows {
            row.write_wire(&mut enc);
        }
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        for _ in 0..ROWS {
            std::hint::black_box(db(Tuple::read_wire(&mut dec), "read_wire")?);
        }
        ns.push(secs(t) * 1e9 / ROWS as f64);
    }
    Ok(median(&ns))
}

/// `front.ping_us`: a liveness probe through a front door whose handler is
/// never reached — wire, acceptor and reader only.
pub fn front_ping_us() -> Res<f64> {
    const PINGS: usize = 500;
    let transport = TcpTransport::new(Metrics::new());
    let listener = db(transport.listen("127.0.0.1:0"), "bind front door")?;
    let handler = FnHandler(|_, _| Err(DbError::internal("ping-only front door")));
    let server = FrontServer::start(
        FrontConfig::default(),
        listener,
        Box::new(handler),
        Metrics::new(),
    );
    let server = db(server, "start front door")?;
    let mut client = db(
        FrontClient::connect(&transport, &server.local_addr(), 0),
        "connect",
    )?;
    let mut us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t = Instant::now();
        db(client.ping(), "ping")?;
        us.push(secs(t) * 1e6);
    }
    drop(client);
    server.shutdown();
    Ok(median(&us))
}
