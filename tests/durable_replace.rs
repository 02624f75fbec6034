//! A file a site rewrites whole — the catalog naming its tables, the
//! checkpoint record Phase 1 restores to, the WAL's master record — is
//! replaced through `DiskProfile::replace`: a temp file written and synced,
//! renamed over the old one, the directory synced. A crash after the temp
//! file is written leaves the old file; a crash after the rename leaves the
//! new one; neither leaves a missing, empty or torn file. Each file is
//! crashed at both steps under the fast and the real profile, then reopened,
//! and a write after the crash lands over whatever it left.

use harbor_common::config::{ReplaceStep, CRASH_AFTER};
use harbor_common::{DbError, DbResult, DiskProfile, FieldType, Metrics, Timestamp};
use harbor_engine::Catalog;
use harbor_storage::CheckpointRecord;
use harbor_wal::{GroupCommit, LogManager, Lsn};
use std::fmt::Debug;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("harbor-durable-replace")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every profile a replace syncs differently under, crashed at every step.
fn cases() -> Vec<(DiskProfile, ReplaceStep)> {
    let mut out = Vec::new();
    for disk in [DiskProfile::fast(), DiskProfile::real()] {
        for step in [ReplaceStep::TempWritten, ReplaceStep::Renamed] {
            out.push((disk, step));
        }
    }
    out
}

/// Writes `new` over `old` with a crash armed at `step`, then reads the file
/// back: the old contents before the rename, the new ones after it.
fn crash_then_read<T: PartialEq + Debug>(
    step: ReplaceStep,
    old: T,
    new: T,
    write_new: impl FnOnce() -> DbResult<()>,
    read: impl FnOnce() -> DbResult<T>,
) {
    CRASH_AFTER.set(Some(step));
    let err = write_new().unwrap_err();
    assert!(matches!(err, DbError::SiteDown(_)), "{err}");
    let back = read().unwrap_or_else(|e| panic!("after a crash at {step:?}: {e}"));
    let want = match step {
        ReplaceStep::TempWritten => old,
        ReplaceStep::Renamed => new,
    };
    assert_eq!(back, want, "crash at {step:?}");
}

#[test]
fn a_crashed_catalog_save_leaves_the_old_catalog_or_the_new() {
    let fields = || vec![("id".to_string(), FieldType::Int64)];
    for (disk, step) in cases() {
        let path = temp_dir("catalog").join("catalog");
        let names = || -> DbResult<Vec<String>> {
            let all = Catalog::open(&path, disk)?.all();
            Ok(all.into_iter().map(|def| def.name).collect())
        };
        Catalog::open(&path, disk)
            .unwrap()
            .add("old", fields())
            .unwrap();
        crash_then_read(
            step,
            vec!["old".to_string()],
            vec!["old".to_string(), "new".to_string()],
            || Catalog::open(&path, disk)?.add("new", fields()).map(drop),
            names,
        );
        let before = names().unwrap().len();
        Catalog::open(&path, disk)
            .unwrap()
            .add("next", fields())
            .unwrap();
        assert_eq!(names().unwrap().len(), before + 1);
    }
}

#[test]
fn a_crashed_checkpoint_record_write_leaves_the_old_record_or_the_new() {
    let record = |t: u64| {
        let mut rec = CheckpointRecord::default();
        rec.promote_global(Timestamp(t));
        rec
    };
    for (disk, step) in cases() {
        let path = temp_dir("checkpoint").join("checkpoint");
        record(7).write(&path, disk).unwrap();
        crash_then_read(
            step,
            record(7),
            record(9),
            || record(9).write(&path, disk),
            || CheckpointRecord::read(&path),
        );
        record(11).write(&path, disk).unwrap();
        assert_eq!(CheckpointRecord::read(&path).unwrap(), record(11));
    }
}

#[test]
fn a_crashed_master_write_leaves_the_old_master_or_the_new() {
    for (disk, step) in cases() {
        let path = temp_dir("master").join("wal.log");
        let open = || LogManager::open(&path, GroupCommit::enabled(), disk, Metrics::new());
        assert_eq!(open().unwrap().read_master().unwrap(), None);
        open().unwrap().write_master(Lsn(100)).unwrap();
        crash_then_read(
            step,
            Some(Lsn(100)),
            Some(Lsn(200)),
            || open()?.write_master(Lsn(200)),
            || open()?.read_master(),
        );
        open().unwrap().write_master(Lsn(300)).unwrap();
        assert_eq!(open().unwrap().read_master().unwrap(), Some(Lsn(300)));
    }
}
