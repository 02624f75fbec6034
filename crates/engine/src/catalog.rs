//! The per-site table catalog: table names, ids, and user schemas,
//! persisted in a small file so a restarted site can reopen its heaps.

use harbor_common::codec;
use harbor_common::lockrank::{self, Rank};
use harbor_common::{wire_struct, DbError, DbResult, DiskProfile, FieldType, TableId, TupleDesc};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

wire_struct! {
    /// Definition of one stored table.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TableDef {
        pub id: TableId,
        pub name: String,
        /// User-visible fields; the stored schema prepends the version columns.
        pub user_fields: Vec<(String, FieldType)>,
    }
}

/// What a catalog file opens with; the table definitions follow as one
/// `Vec<TableDef>`, in id order.
const MAGIC: &[u8; 4] = b"HBCT";

impl TableDef {
    /// The stored schema (with reserved version columns).
    pub fn stored_desc(&self) -> TupleDesc {
        TupleDesc::with_version_columns(
            self.user_fields
                .iter()
                .map(|(n, t)| (n.as_str(), *t))
                .collect(),
        )
    }
}

/// Persistent catalog for one site.
pub struct Catalog {
    path: PathBuf,
    /// How [`Catalog::add`] makes the file durable: the engine's profile.
    disk: DiskProfile,
    tables: Mutex<BTreeMap<u32, TableDef>>,
}

impl Catalog {
    pub fn open(path: impl AsRef<Path>, disk: DiskProfile) -> DbResult<Self> {
        let path = path.as_ref().to_path_buf();
        let tables = match std::fs::read(&path) {
            Ok(bytes) => decode(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
            Err(e) => return Err(e.into()),
        };
        Ok(Catalog {
            path,
            disk,
            tables: Mutex::new(tables),
        })
    }

    /// Registers a new table and persists the catalog. The first user field
    /// must be an `Int64` — it is the unique tuple identifier recovery keys
    /// on (§5.3).
    pub fn add(&self, name: &str, user_fields: Vec<(String, FieldType)>) -> DbResult<TableDef> {
        if user_fields.is_empty() || user_fields[0].1 != FieldType::Int64 {
            return Err(DbError::Schema(
                "the first user field must be an int64 tuple identifier".into(),
            ));
        }
        let _rank = lockrank::acquire(Rank::Catalog);
        let mut tables = self.tables.lock();
        if tables.values().any(|t| t.name == name) {
            return Err(DbError::Schema(format!("table {name:?} already exists")));
        }
        let id = TableId(tables.keys().next_back().map(|k| k + 1).unwrap_or(1));
        let def = TableDef {
            id,
            name: name.to_string(),
            user_fields,
        };
        tables.insert(id.0, def.clone());
        self.disk.replace(&self.path, &encode(&tables))?;
        Ok(def)
    }

    pub fn by_name(&self, name: &str) -> Option<TableDef> {
        self.tables
            .lock()
            .values()
            .find(|t| t.name == name)
            .cloned()
    }

    pub fn all(&self) -> Vec<TableDef> {
        let _rank = lockrank::acquire(Rank::Catalog);
        self.tables.lock().values().cloned().collect()
    }
}

fn encode(tables: &BTreeMap<u32, TableDef>) -> Vec<u8> {
    codec::to_file(MAGIC, &tables.values().cloned().collect::<Vec<_>>())
}

fn decode(bytes: &[u8]) -> DbResult<BTreeMap<u32, TableDef>> {
    let defs: Vec<TableDef> = codec::from_file(MAGIC, bytes)?;
    Ok(defs.into_iter().map(|def| (def.id.0, def)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("harbor-catalog-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn fields() -> Vec<(String, FieldType)> {
        vec![
            ("id".into(), FieldType::Int64),
            ("qty".into(), FieldType::Int32),
            ("name".into(), FieldType::FixedStr(12)),
        ]
    }

    #[test]
    fn add_and_reopen() {
        let path = temp("basic");
        let cat = Catalog::open(&path, DiskProfile::fast()).unwrap();
        let def = cat.add("sales", fields()).unwrap();
        assert_eq!(def.id, TableId(1));
        let def2 = cat.add("returns", fields()).unwrap();
        assert_eq!(def2.id, TableId(2));
        drop(cat);
        let cat = Catalog::open(&path, DiskProfile::fast()).unwrap();
        assert_eq!(cat.all().len(), 2);
        let back = cat.by_name("sales").unwrap();
        assert_eq!(back, def);
        assert_eq!(back.stored_desc().len(), 5);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_duplicate_names_and_bad_key() {
        let path = temp("dups");
        let cat = Catalog::open(&path, DiskProfile::fast()).unwrap();
        cat.add("t", fields()).unwrap();
        assert!(cat.add("t", fields()).is_err());
        assert!(cat.add("u", vec![("x".into(), FieldType::Int32)]).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lookup_misses_return_none() {
        let path = temp("miss");
        let cat = Catalog::open(&path, DiskProfile::fast()).unwrap();
        assert!(cat.by_name("nope").is_none());
        let _ = std::fs::remove_file(&path);
    }

    /// A damaged catalog file is `Corrupt`, never a panic: a field-list
    /// count beyond the bytes behind it is refused before anything is
    /// allocated for it, and so are a short file and trailing bytes.
    #[test]
    fn damaged_files_are_corrupt() {
        let def = TableDef {
            id: TableId(1),
            name: "t".into(),
            user_fields: fields(),
        };
        let bytes = encode(&BTreeMap::from([(1, def)]));
        assert_eq!(decode(&bytes).unwrap().len(), 1);
        // Layout: magic | table count u32 | id u32 | name (u32 + 1) | field count u32 | ...
        let mut inflated = bytes.clone();
        inflated[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&inflated).unwrap_err();
        assert!(
            err.is_corrupt() && err.to_string().contains("exceeds"),
            "{err}"
        );
        assert!(decode(&bytes[..bytes.len() - 1]).unwrap_err().is_corrupt());
        assert!(decode(&[&bytes[..], &[0]].concat())
            .unwrap_err()
            .is_corrupt());
    }
}
