//! The in-memory tuple and its fixed-width on-disk encoding.

use crate::codec::{Decoder, Encoder, Wire};
use crate::error::{DbError, DbResult};
use crate::schema::{TupleDesc, COL_DELETION_TS, COL_INSERTION_TS};
use crate::time::Timestamp;
use crate::value::Value;
use crate::FieldType;
use std::fmt;

/// A row: a vector of values conforming to some [`TupleDesc`].
///
/// Stored tuples carry the two reserved version columns in positions 0 and 1;
/// query outputs may have arbitrary shapes.
#[derive(Clone, PartialEq, Debug)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// Builds a stored tuple from user fields plus explicit version columns.
    pub fn versioned(insertion: Timestamp, deletion: Timestamp, user: Vec<Value>) -> Self {
        let mut values = Vec::with_capacity(user.len() + 2);
        values.push(Value::Time(insertion));
        values.push(Value::Time(deletion));
        values.extend(user);
        Tuple { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    pub fn set(&mut self, i: usize, v: Value) {
        self.values[i] = v;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Insertion timestamp of a stored tuple.
    pub fn insertion_ts(&self) -> DbResult<Timestamp> {
        self.values[COL_INSERTION_TS].as_time()
    }

    /// Deletion timestamp of a stored tuple.
    pub fn deletion_ts(&self) -> DbResult<Timestamp> {
        self.values[COL_DELETION_TS].as_time()
    }

    pub fn set_deletion_ts(&mut self, t: Timestamp) {
        self.values[COL_DELETION_TS] = Value::Time(t);
    }

    /// The user fields of a stored tuple (everything after the version pair).
    pub fn user_values(&self) -> &[Value] {
        &self.values[crate::schema::NUM_VERSION_COLS..]
    }

    /// Serializes into `out` as [`FixedLayout::encode`] does, walking the
    /// descriptor instead of a layout built for it: for a row now and then.
    pub fn write_fixed(&self, desc: &TupleDesc, out: &mut [u8]) -> DbResult<()> {
        let fields = (0..desc.len()).map(|i| (desc.field_type(i), desc.field_offset(i)));
        encode_fixed(desc, fields, &self.values, out)
    }

    /// Deserializes a fixed-width tuple.
    pub fn read_fixed(desc: &TupleDesc, dec: &mut Decoder<'_>) -> DbResult<Tuple> {
        let mut values = Vec::with_capacity(desc.len());
        for i in 0..desc.len() {
            let v = match desc.field_type(i) {
                FieldType::Int32 => Value::Int32(dec.get_i32()?),
                FieldType::Int64 => Value::Int64(dec.get_i64()?),
                FieldType::Time => Value::Time(Timestamp(dec.get_u64()?)),
                FieldType::FixedStr(n) => {
                    let raw = dec.get_raw(n as usize)?;
                    let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
                    let s = std::str::from_utf8(&raw[..end])
                        .map_err(|_| DbError::corrupt("invalid utf-8 in fixed string"))?;
                    Value::Str(s.to_string())
                }
            };
            values.push(v);
        }
        Ok(Tuple { values })
    }

    /// Serializes with a self-describing (variable) layout, for the wire: a
    /// `u16` field count, then each field through [`Value`]'s codec.
    pub fn write_wire(&self, enc: &mut Encoder) {
        enc.put_u16(self.values.len() as u16);
        Value::encode_all(&self.values, enc);
    }

    /// Deserializes the wire layout.
    pub fn read_wire(dec: &mut Decoder<'_>) -> DbResult<Tuple> {
        let n = dec.get_u16()? as usize;
        Ok(Tuple {
            values: Value::decode_n(dec, n)?,
        })
    }
}

impl Wire for Tuple {
    #[inline]
    fn encode(&self, enc: &mut Encoder) {
        self.write_wire(enc);
    }
    #[inline]
    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        Tuple::read_wire(dec)
    }
}

/// Transcodes the fixed-width stored encoding of a tuple straight into the
/// self-describing wire layout, without materializing a [`Tuple`].
///
/// `deletion` overrides the stored deletion timestamp — the visibility check
/// may mask deletions that happened after the historical read time. The
/// output is byte-identical to `Tuple::read_fixed` + `set_deletion_ts` +
/// `write_wire`, which the equivalence property tests assert.
pub fn transcode_fixed_to_wire(
    desc: &TupleDesc,
    bytes: &[u8],
    deletion: Timestamp,
    enc: &mut Encoder,
) -> DbResult<()> {
    check_fixed_len(desc, bytes)?;
    enc.put_u16(desc.len() as u16);
    for i in 0..desc.len() {
        transcode_field(desc, bytes, i, deletion, enc)?;
    }
    Ok(())
}

/// Like [`transcode_fixed_to_wire`], but projects only the columns in `cols`
/// (in the given order). Used by the ids+deletions recovery scans, which ship
/// `[id, masked deletion]` pairs.
pub fn transcode_fixed_cols_to_wire(
    desc: &TupleDesc,
    bytes: &[u8],
    cols: &[usize],
    deletion: Timestamp,
    enc: &mut Encoder,
) -> DbResult<()> {
    check_fixed_len(desc, bytes)?;
    enc.put_u16(cols.len() as u16);
    for &i in cols {
        transcode_field(desc, bytes, i, deletion, enc)?;
    }
    Ok(())
}

fn check_fixed_len(desc: &TupleDesc, bytes: &[u8]) -> DbResult<()> {
    if bytes.len() < desc.byte_width() {
        return Err(DbError::corrupt(format!(
            "fixed tuple truncated: {} bytes, schema needs {}",
            bytes.len(),
            desc.byte_width()
        )));
    }
    Ok(())
}

fn transcode_field(
    desc: &TupleDesc,
    bytes: &[u8],
    i: usize,
    deletion: Timestamp,
    enc: &mut Encoder,
) -> DbResult<()> {
    if i == COL_DELETION_TS && desc.has_version_columns() {
        enc.put_u8(Value::TIME_TAG);
        enc.put_u64(deletion.0);
        return Ok(());
    }
    let off = desc.field_offset(i);
    match desc.field_type(i) {
        // The fixed and wire encodings are both little-endian, so the
        // numeric payloads copy across verbatim.
        FieldType::Int32 => {
            enc.put_u8(Value::INT32_TAG);
            enc.put_raw(&bytes[off..off + 4]);
        }
        FieldType::Int64 => {
            enc.put_u8(Value::INT64_TAG);
            enc.put_raw(&bytes[off..off + 8]);
        }
        FieldType::Time => {
            enc.put_u8(Value::TIME_TAG);
            enc.put_raw(&bytes[off..off + 8]);
        }
        FieldType::FixedStr(n) => {
            let raw = &bytes[off..off + n as usize];
            let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
            let s = std::str::from_utf8(&raw[..end])
                .map_err(|_| DbError::corrupt("invalid utf-8 in fixed string"))?;
            enc.put_u8(Value::STR_TAG);
            enc.put_str(s);
        }
    }
    Ok(())
}

/// The inverse of [`transcode_fixed_to_wire`]: one wire-layout row off `dec`
/// into `out` (a page slot: exactly `desc.byte_width()` bytes, all written),
/// byte-identical to `Tuple::read_wire` + `write_fixed`, with no [`Tuple`]
/// between. A row that is cut short or is not of `desc`'s field count, types
/// and string widths is [`DbError::Corrupt`]: it came off the wire.
pub fn transcode_wire_to_fixed(
    desc: &TupleDesc,
    dec: &mut Decoder<'_>,
    out: &mut [u8],
) -> DbResult<()> {
    let n = dec.get_u16()? as usize;
    if n != desc.len() || out.len() != desc.byte_width() {
        return Err(DbError::corrupt(format!(
            "wire row of {n} fields for {desc}"
        )));
    }
    let mut rest = out;
    for ty in desc.types() {
        let (at, after) = rest.split_at_mut(ty.width());
        rest = after;
        match (*ty, dec.get_u8()?) {
            (FieldType::Int32, Value::INT32_TAG) => at.copy_from_slice(dec.take(4)?),
            (FieldType::Int64, Value::INT64_TAG) | (FieldType::Time, Value::TIME_TAG) => {
                at.copy_from_slice(dec.take(8)?)
            }
            (FieldType::FixedStr(_), Value::STR_TAG) => {
                let len = dec.get_u32()? as usize;
                let raw = dec.take(len)?;
                if len > at.len() || std::str::from_utf8(raw).is_err() {
                    return Err(DbError::corrupt(format!("{len} wire bytes are no {ty}")));
                }
                at[..len].copy_from_slice(raw);
                at[len..].fill(0);
            }
            (ty, tag) => return Err(DbError::corrupt(format!("wire tag {tag} is no {ty}"))),
        }
    }
    Ok(())
}

/// A stored schema's fixed encoding, flattened to `(type, offset)` pairs in
/// one contiguous vector. Built once per scan or per load so the hot decode
/// and encode loops walk a local slice instead of chasing the descriptor per
/// field.
pub struct FixedLayout {
    fields: Vec<(FieldType, usize)>,
    width: usize,
    /// Words a refusal.
    desc: TupleDesc,
}

impl FixedLayout {
    pub fn new(desc: &TupleDesc) -> Self {
        let fields = (0..desc.len())
            .map(|i| (desc.field_type(i), desc.field_offset(i)))
            .collect();
        FixedLayout {
            fields,
            width: desc.byte_width(),
            desc: desc.clone(),
        }
    }

    /// Bytes of one stored row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Encodes one row into `out`, which must be exactly [`width`](Self::width)
    /// bytes (a page slot, or a buffer of that size): every byte is written.
    /// The inverse of [`decode`](Self::decode). A row of another field count,
    /// a value of another type or a string wider than its column is
    /// [`DbError::Schema`], worded by [`TupleDesc::check`]; `out` is then
    /// partly written.
    #[inline]
    pub fn encode(&self, values: &[Value], out: &mut [u8]) -> DbResult<()> {
        encode_fixed(&self.desc, self.fields.iter().copied(), values, out)
    }

    /// Decodes one stored row; equivalent to [`Tuple::read_fixed`] over the
    /// same descriptor. `#[inline]` so the per-page scan loops in other
    /// crates can absorb it without LTO.
    #[inline]
    pub fn decode(&self, bytes: &[u8]) -> DbResult<Tuple> {
        let Some(bytes) = bytes.get(..self.width) else {
            return Err(DbError::corrupt("stored tuple shorter than its layout"));
        };
        let mut values = Vec::with_capacity(self.fields.len());
        for &(ty, off) in &self.fields {
            let v = match ty {
                FieldType::Int32 => {
                    let mut b = [0u8; 4];
                    b.copy_from_slice(&bytes[off..off + 4]);
                    Value::Int32(i32::from_le_bytes(b))
                }
                FieldType::Int64 => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&bytes[off..off + 8]);
                    Value::Int64(i64::from_le_bytes(b))
                }
                FieldType::Time => {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&bytes[off..off + 8]);
                    Value::Time(Timestamp(u64::from_le_bytes(b)))
                }
                FieldType::FixedStr(n) => {
                    let raw = &bytes[off..off + n as usize];
                    let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
                    let s = std::str::from_utf8(&raw[..end])
                        .map_err(|_| DbError::corrupt("invalid utf-8 in fixed string"))?;
                    Value::Str(s.to_string())
                }
            };
            values.push(v);
        }
        Ok(Tuple { values })
    }
}

/// The one fixed-width encoder, behind [`FixedLayout::encode`] and
/// [`Tuple::write_fixed`]: `fields` are `desc`'s `(type, offset)` pairs.
#[inline]
fn encode_fixed(
    desc: &TupleDesc,
    fields: impl ExactSizeIterator<Item = (FieldType, usize)>,
    values: &[Value],
    out: &mut [u8],
) -> DbResult<()> {
    // One pass decides; where it refuses, `check` words the refusal.
    if values.len() != fields.len() {
        return desc.check(values);
    }
    if out.len() != desc.byte_width() {
        return Err(DbError::Schema(format!(
            "{} bytes for a {desc} row",
            out.len()
        )));
    }
    for ((ty, off), v) in fields.zip(values) {
        let at = &mut out[off..off + ty.width()];
        match (ty, v) {
            (FieldType::Int32, Value::Int32(x)) => at.copy_from_slice(&x.to_le_bytes()),
            (FieldType::Int64, Value::Int64(x)) => at.copy_from_slice(&x.to_le_bytes()),
            (FieldType::Time, Value::Time(t)) => at.copy_from_slice(&t.0.to_le_bytes()),
            (FieldType::FixedStr(_), Value::Str(s)) if s.len() <= at.len() => {
                // NUL padding to the declared width.
                at[..s.len()].copy_from_slice(s.as_bytes());
                at[s.len()..].fill(0);
            }
            _ => return desc.check(values),
        }
    }
    Ok(())
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldType;

    fn desc() -> TupleDesc {
        TupleDesc::with_version_columns(vec![
            ("id", FieldType::Int64),
            ("qty", FieldType::Int32),
            ("name", FieldType::FixedStr(8)),
        ])
    }

    fn sample() -> Tuple {
        Tuple::versioned(
            Timestamp(4),
            Timestamp::ZERO,
            vec![
                Value::Int64(42),
                Value::Int32(-1),
                Value::Str("colgate".into()),
            ],
        )
    }

    #[test]
    fn fixed_round_trip() {
        let d = desc();
        let t = sample();
        let mut bytes = vec![0xffu8; d.byte_width()];
        t.write_fixed(&d, &mut bytes).unwrap();
        let mut dec = Decoder::new(&bytes);
        let back = Tuple::read_fixed(&d, &mut dec).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn wire_round_trip() {
        let t = sample();
        let mut enc = Encoder::new();
        t.write_wire(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(Tuple::read_wire(&mut dec).unwrap(), t);
    }

    #[test]
    fn version_column_accessors() {
        let mut t = sample();
        assert_eq!(t.insertion_ts().unwrap(), Timestamp(4));
        assert_eq!(t.deletion_ts().unwrap(), Timestamp::ZERO);
        t.set_deletion_ts(Timestamp(9));
        assert_eq!(t.deletion_ts().unwrap(), Timestamp(9));
        assert_eq!(t.user_values().len(), 3);
    }

    #[test]
    fn oversized_string_is_rejected() {
        let d = desc();
        let t = Tuple::versioned(
            Timestamp(1),
            Timestamp::ZERO,
            vec![
                Value::Int64(1),
                Value::Int32(1),
                Value::Str("way too long for 8".into()),
            ],
        );
        let mut bytes = vec![0u8; d.byte_width()];
        assert!(t.write_fixed(&d, &mut bytes).is_err());
        // A buffer that is not the schema's width is refused, not overrun.
        assert!(sample().write_fixed(&d, &mut bytes[1..]).is_err());
    }
}
