//! Runtime values for tuple fields.

use crate::error::{DbError, DbResult};
use crate::schema::FieldType;
use crate::time::Timestamp;
use std::cmp::Ordering;
use std::fmt;

crate::wire_enum! {
    /// A single field value. The store is fixed-width: strings are padded to the
    /// declared width on disk, but carried unpadded here.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    pub enum Value {
        0 as INT32_TAG => Int32(i32),
        1 as INT64_TAG => Int64(i64),
        /// Logical timestamp (used for the two reserved columns and exposed to
        /// queries in `SeeDeleted` mode, §5.1).
        2 as TIME_TAG => Time(Timestamp),
        3 as STR_TAG => Str(String),
    }
}

impl Value {
    /// The field type this value conforms to, given a declared string width.
    pub fn matches(&self, ty: FieldType) -> bool {
        match (self, ty) {
            (Value::Int32(_), FieldType::Int32) => true,
            (Value::Int64(_), FieldType::Int64) => true,
            (Value::Time(_), FieldType::Time) => true,
            (Value::Str(s), FieldType::FixedStr(n)) => s.len() <= n as usize,
            _ => false,
        }
    }

    pub fn as_i64(&self) -> DbResult<i64> {
        match self {
            Value::Int32(v) => Ok(*v as i64),
            Value::Int64(v) => Ok(*v),
            Value::Time(t) => Ok(t.0 as i64),
            Value::Str(_) => Err(DbError::Schema("string used as integer".into())),
        }
    }

    pub fn as_time(&self) -> DbResult<Timestamp> {
        match self {
            Value::Time(t) => Ok(*t),
            Value::Int64(v) if *v >= 0 => Ok(Timestamp(*v as u64)),
            other => Err(DbError::Schema(format!("{other} used as timestamp"))),
        }
    }

    pub fn as_str(&self) -> DbResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(DbError::Schema(format!("{other} used as string"))),
        }
    }

    /// Total order used by comparisons and aggregates. Values of different
    /// types order by type tag; queries never compare across types in
    /// practice because plans are type-checked against the schema.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Int32(a), Value::Int32(b)) => a.cmp(b),
            (Value::Int64(a), Value::Int64(b)) => a.cmp(b),
            (Value::Time(a), Value::Time(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            // Numeric cross-width comparison is allowed.
            (Value::Int32(a), Value::Int64(b)) => (*a as i64).cmp(b),
            (Value::Int64(a), Value::Int32(b)) => a.cmp(&(*b as i64)),
            // Timestamps compare numerically against integers (SQL
            // predicates like `insertion_time <= 5`); negative integers
            // sort below every timestamp.
            (Value::Time(a), b @ (Value::Int64(_) | Value::Int32(_))) => {
                #[expect(clippy::expect_used, reason = "the arm matched an integer")]
                let n = b.as_i64().expect("integer");
                if n < 0 {
                    Ordering::Greater
                } else {
                    a.0.cmp(&(n as u64))
                }
            }
            (a @ (Value::Int64(_) | Value::Int32(_)), Value::Time(b)) => {
                #[expect(clippy::expect_used, reason = "the arm matched an integer")]
                let n = a.as_i64().expect("integer");
                if n < 0 {
                    Ordering::Less
                } else {
                    (n as u64).cmp(&b.0)
                }
            }
            (a, b) => tag(a).cmp(&tag(b)),
        }
    }
}

fn tag(v: &Value) -> u8 {
    match v {
        Value::Int32(_) => Value::INT32_TAG,
        Value::Int64(_) => Value::INT64_TAG,
        Value::Time(_) => Value::TIME_TAG,
        Value::Str(_) => Value::STR_TAG,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int32(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Time(t) => write!(f, "{t}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<Timestamp> for Value {
    fn from(v: Timestamp) -> Self {
        Value::Time(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_conformance() {
        assert!(Value::Int32(5).matches(FieldType::Int32));
        assert!(!Value::Int32(5).matches(FieldType::Int64));
        assert!(Value::Str("abc".into()).matches(FieldType::FixedStr(3)));
        assert!(!Value::Str("abcd".into()).matches(FieldType::FixedStr(3)));
    }

    #[test]
    fn cross_width_integer_comparison() {
        assert_eq!(Value::Int32(5).total_cmp(&Value::Int64(5)), Ordering::Equal);
        assert_eq!(Value::Int64(4).total_cmp(&Value::Int32(5)), Ordering::Less);
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int32(-3).as_i64().unwrap(), -3);
        assert_eq!(Value::Time(Timestamp(9)).as_i64().unwrap(), 9);
        assert!(Value::Str("x".into()).as_i64().is_err());
        assert_eq!(Value::Int64(7).as_time().unwrap(), Timestamp(7));
    }
}
