//! Tuple schemas.
//!
//! The physical data model reserves the first two columns of every stored
//! relation for the insertion and deletion timestamps (thesis §6.1.1); user
//! code describes only the user-visible fields and [`TupleDesc::with_version_columns`]
//! prepends the reserved pair.

use crate::codec::{bad_tag, Decoder, Encoder, Wire};
use crate::error::{DbError, DbResult};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Fixed-width field types supported by the row store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FieldType {
    Int32,
    /// 64-bit signed integer; also used for tuple ids (primary keys).
    Int64,
    /// Logical timestamp column (the two reserved version columns).
    Time,
    /// UTF-8 string padded with NULs to the declared byte width on disk.
    FixedStr(u16),
}

impl FieldType {
    /// On-disk width in bytes.
    pub fn width(self) -> usize {
        match self {
            FieldType::Int32 => 4,
            FieldType::Int64 => 8,
            FieldType::Time => 8,
            FieldType::FixedStr(n) => n as usize,
        }
    }
}

/// The catalog file's layout: a type tag, then a `u16` width that is present
/// for every type and zero for all but `FixedStr` — which is why this is
/// written by hand and not declared.
impl Wire for FieldType {
    fn encode(&self, enc: &mut Encoder) {
        let (tag, width) = match *self {
            FieldType::Int32 => (0, 0),
            FieldType::Int64 => (1, 0),
            FieldType::Time => (2, 0),
            FieldType::FixedStr(n) => (3, n),
        };
        enc.put_u8(tag);
        enc.put_u16(width);
    }

    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        let tag = dec.get_u8()?;
        let width = dec.get_u16()?;
        Ok(match tag {
            0 => FieldType::Int32,
            1 => FieldType::Int64,
            2 => FieldType::Time,
            3 => FieldType::FixedStr(width),
            t => return Err(bad_tag("FieldType", t)),
        })
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldType::Int32 => write!(f, "int32"),
            FieldType::Int64 => write!(f, "int64"),
            FieldType::Time => write!(f, "time"),
            FieldType::FixedStr(n) => write!(f, "str({n})"),
        }
    }
}

/// Index of the insertion-timestamp column in a stored tuple.
pub const COL_INSERTION_TS: usize = 0;
/// Index of the deletion-timestamp column in a stored tuple.
pub const COL_DELETION_TS: usize = 1;
/// Number of reserved version columns.
pub const NUM_VERSION_COLS: usize = 2;

/// Describes the fields of a tuple: names and fixed-width types.
///
/// `TupleDesc` is immutable and cheaply cloneable (`Arc` inside); operators
/// share it freely, mirroring `getTupleDesc()` of the thesis' iterator
/// interface (§6.1.5).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TupleDesc {
    inner: Arc<DescInner>,
}

#[derive(PartialEq, Eq, Debug)]
struct DescInner {
    names: Vec<String>,
    types: Vec<FieldType>,
    /// Byte offset of each field within the fixed on-disk encoding.
    offsets: Vec<usize>,
    width: usize,
    /// Bytes of a row's wire encoding with every string at its full width.
    wire_capacity: usize,
}

impl TupleDesc {
    /// Builds a descriptor from `(name, type)` pairs.
    pub fn new(fields: Vec<(&str, FieldType)>) -> Self {
        let names = fields.iter().map(|(n, _)| n.to_string()).collect();
        let types: Vec<FieldType> = fields.iter().map(|(_, t)| *t).collect();
        let mut offsets = Vec::with_capacity(types.len());
        let mut width = 0usize;
        // The field count, then a tag and a payload a field; a string's
        // payload is a `u32` length and its bytes.
        let mut wire_capacity = 2usize;
        for t in &types {
            offsets.push(width);
            width += t.width();
            wire_capacity += 1 + t.width() + matches!(t, FieldType::FixedStr(_)) as usize * 4;
        }
        TupleDesc {
            inner: Arc::new(DescInner {
                names,
                types,
                offsets,
                width,
                wire_capacity,
            }),
        }
    }

    /// Builds the *stored* descriptor for a user schema: prepends the two
    /// reserved timestamp columns.
    pub fn with_version_columns(user_fields: Vec<(&str, FieldType)>) -> Self {
        let mut fields = vec![("__ins", FieldType::Time), ("__del", FieldType::Time)];
        fields.extend(user_fields);
        Self::new(fields)
    }

    /// `true` when the first two columns are the reserved timestamp pair.
    pub fn has_version_columns(&self) -> bool {
        self.len() >= NUM_VERSION_COLS
            && self.field_type(COL_INSERTION_TS) == FieldType::Time
            && self.field_type(COL_DELETION_TS) == FieldType::Time
    }

    pub fn len(&self) -> usize {
        self.inner.types.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.types.is_empty()
    }

    /// Total on-disk tuple width in bytes.
    pub fn byte_width(&self) -> usize {
        self.inner.width
    }

    /// Bytes a row of this schema takes on the wire at most: exactly, unless
    /// a string is shorter than its column.
    pub fn wire_capacity(&self) -> usize {
        self.inner.wire_capacity
    }

    pub fn field_type(&self, i: usize) -> FieldType {
        self.inner.types[i]
    }

    /// Byte offset of field `i` within the fixed on-disk encoding.
    pub fn field_offset(&self, i: usize) -> usize {
        self.inner.offsets[i]
    }

    pub fn field_name(&self, i: usize) -> &str {
        &self.inner.names[i]
    }

    pub fn types(&self) -> &[FieldType] {
        &self.inner.types
    }

    /// Validates that `values` conforms to this descriptor.
    pub fn check(&self, values: &[Value]) -> DbResult<()> {
        if values.len() != self.len() {
            return Err(DbError::Schema(format!(
                "arity mismatch: tuple has {} fields, schema has {}",
                values.len(),
                self.len()
            )));
        }
        for (i, v) in values.iter().enumerate() {
            if !v.matches(self.field_type(i)) {
                return Err(DbError::Schema(format!(
                    "field {} ({}) expects {}, got {v}",
                    i,
                    self.field_name(i),
                    self.field_type(i)
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for TupleDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for i in 0..self.len() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", self.field_name(i), self.field_type(i))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sales_desc() -> TupleDesc {
        TupleDesc::with_version_columns(vec![("id", FieldType::Int64), ("qty", FieldType::Int32)])
    }

    #[test]
    fn version_columns_are_prepended() {
        let d = sales_desc();
        assert!(d.has_version_columns());
        assert_eq!(d.len(), 4);
        assert_eq!(d.byte_width(), 8 + 8 + 8 + 4);
        assert_eq!(d.field_name(2), "id");
    }

    #[test]
    fn check_rejects_bad_tuples() {
        let d = sales_desc();
        let ok = vec![
            Value::Time(crate::time::Timestamp(1)),
            Value::Time(crate::time::Timestamp::ZERO),
            Value::Int64(7),
            Value::Int32(3),
        ];
        d.check(&ok).unwrap();
        let bad_arity = &ok[..3];
        assert!(d.check(bad_arity).is_err());
        let mut bad_type = ok.clone();
        bad_type[3] = Value::Str("x".into());
        assert!(d.check(&bad_type).is_err());
    }
}
