//! The in-memory row, and the codecs between it and the store's slots.
//!
//! A [`Tuple`] is the bytes a row crosses the wire in: a `u16` field count,
//! then each field as [`Value`]'s codec writes it — a tag byte and a
//! payload (4 bytes for `Int32`, 8 for `Int64` and `Time`, a `u32` length
//! and UTF-8 bytes for `Str`). The encoding is canonical, so two rows are
//! equal exactly when their bytes are. A paper row of sixteen integer
//! fields is 94 bytes.
//!
//! Those bytes are held one of two ways. A row built from values, from a
//! page slot or off a request has an exact-size allocation of its own. A
//! row read off a scan reply ([`Tuple::read_shared`]) is a range of the
//! reply frame it arrived in and keeps that frame alive: the rows of one
//! frame share its one allocation, and the frame is freed with the last of
//! them. Writing to a shared row ([`Tuple::set_deletion_ts`]) copies it out
//! first, so its siblings never see the write.
//!
//! Every row is checked field by field when it is built — from values,
//! from a page slot or off the wire — so reading a field of one cannot fail;
//! only a column index the row does not have can ([`Tuple::try_get`]).
//!
//! The row codecs, none with a [`Value`] between:
//! * a page slot into a row: [`transcode_fixed_to_wire`] (the ship sink's
//!   own function, which [`Tuple::from_fixed`] runs into the row) and its
//!   projecting twin [`transcode_fixed_cols_to_wire`]; one field of a slot,
//!   without the row: [`fixed_field`] (a predicate's column read);
//! * a row into a page slot: [`transcode_wire_to_fixed`], straight off a
//!   receive buffer or from a row in memory ([`Tuple::write_fixed`]);
//! * a row off the wire and back: [`Tuple::read_wire`] checks and copies,
//!   [`Tuple::read_shared`] checks and keeps the frame, [`Tuple::write_wire`]
//!   copies.

use crate::codec::{bad_tag, Decoder, Encoder, Wire};
use crate::error::{DbError, DbResult};
use crate::schema::{TupleDesc, COL_DELETION_TS, COL_INSERTION_TS, NUM_VERSION_COLS};
use crate::time::Timestamp;
use crate::value::Value;
use crate::FieldType;
use std::fmt;
use std::sync::Arc;

/// A row: its self-describing wire encoding, conforming to some
/// [`TupleDesc`] — in an allocation of its own, or as a range of the reply
/// frame it arrived in, which it keeps alive (see the module doc).
///
/// Stored tuples carry the two reserved version columns in positions 0 and 1;
/// query outputs may have arbitrary shapes.
#[derive(Clone)]
pub struct Tuple {
    /// A `u16` field count, then the fields; checked when built.
    held: Held,
}

/// Where a row's bytes are.
#[derive(Clone)]
enum Held {
    /// An exact-size allocation of the row's own.
    Own(Box<[u8]>),
    /// `frame[start..end]` of a received reply, shared with the rows beside
    /// it.
    Frame {
        frame: Arc<Vec<u8>>,
        start: u32,
        end: u32,
    },
}

impl Tuple {
    fn own(wire: Box<[u8]>) -> Self {
        Tuple {
            held: Held::Own(wire),
        }
    }

    /// The row's bytes, wherever they are held.
    #[inline]
    fn wire(&self) -> &[u8] {
        match &self.held {
            Held::Own(wire) => wire,
            Held::Frame { frame, start, end } => &frame[*start as usize..*end as usize],
        }
    }

    /// The row's bytes to write to: a shared row is copied out of its frame
    /// first, so the rows beside it keep theirs.
    fn wire_mut(&mut self) -> &mut [u8] {
        if let Held::Frame { .. } = self.held {
            self.held = Held::Own(self.wire().into());
        }
        match &mut self.held {
            Held::Own(wire) => wire,
            Held::Frame { .. } => unreachable!("copied out above"),
        }
    }

    pub fn new(values: Vec<Value>) -> Self {
        Self::encode(&[], &values)
    }

    /// Builds a stored tuple from user fields plus explicit version columns.
    pub fn versioned(insertion: Timestamp, deletion: Timestamp, user: Vec<Value>) -> Self {
        Self::encode(&[insertion, deletion], &user)
    }

    /// The row of `times`, then `values`, in one allocation of its size. A
    /// row that fits 256 bytes (a paper row is 94) is written on the stack
    /// and copied, which costs less than sizing it first.
    fn encode(times: &[Timestamp], values: &[Value]) -> Self {
        let mut stack = [0u8; 256];
        if let Some(len) = write_fields(&mut stack, times, values) {
            return Tuple::own(stack[..len].into());
        }
        let size = 2 + 9 * times.len() + values.iter().map(wire_size).sum::<usize>();
        let mut wire = vec![0; size].into_boxed_slice();
        let written = write_fields(&mut wire, times, values);
        debug_assert_eq!(written, Some(size));
        Tuple::own(wire)
    }

    /// Decodes a stored row: its slot's bytes transcoded into the row by
    /// [`transcode_fixed_to_wire`], `deletion` in place of the stored
    /// deletion time (a historical read masks later deletions).
    pub fn from_fixed(desc: &TupleDesc, bytes: &[u8], deletion: Timestamp) -> DbResult<Tuple> {
        check_fixed_len(desc, bytes)?;
        // A string crosses without its NUL padding. A schema without strings,
        // whose capacity is the count, a tag a field and the slot's bytes,
        // has rows of one size.
        let mut size = desc.wire_capacity();
        if size > 2 + desc.len() + desc.byte_width() {
            for (i, ty) in desc.types().iter().enumerate() {
                if let FieldType::FixedStr(n) = ty {
                    let raw = &bytes[desc.field_offset(i)..][..*n as usize];
                    size -= raw.len() - unpadded(raw).len();
                }
            }
        }
        let mut enc = Encoder::with_capacity(size);
        transcode_fixed_to_wire(desc, bytes, deletion, &mut enc)?;
        Ok(Tuple::own(enc.into_bytes().into_boxed_slice()))
    }

    /// Every field, in order.
    pub fn values(&self) -> Vec<Value> {
        self.fields().collect()
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values()
    }

    /// The user fields of a stored tuple (everything after the version pair).
    pub fn user_values(&self) -> Vec<Value> {
        self.fields().skip(NUM_VERSION_COLS).collect()
    }

    /// Field `i`. Panics if the row has no field `i`, as indexing a slice
    /// does; a column index that came off the wire goes through
    /// [`try_get`](Self::try_get).
    pub fn get(&self, i: usize) -> Value {
        match self.try_get(i) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Field `i`, or [`DbError::Schema`] if the row has none. A predicate's
    /// column read: the numbers are read in place, a string through
    /// [`Value`]'s codec.
    #[inline]
    pub fn try_get(&self, i: usize) -> DbResult<Value> {
        let wire = self.wire();
        let at = seek(wire, i)?;
        let payload = at + 1;
        Ok(match wire[at] {
            Value::INT32_TAG => Value::Int32(i32::from_le_bytes(field_bytes(wire, payload)?)),
            Value::INT64_TAG => Value::Int64(i64::from_le_bytes(field_bytes(wire, payload)?)),
            Value::TIME_TAG => {
                Value::Time(Timestamp(u64::from_le_bytes(field_bytes(wire, payload)?)))
            }
            _ => return Value::decode(&mut Decoder::new(&wire[at..])),
        })
    }

    pub fn len(&self) -> usize {
        field_count(self.wire())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insertion timestamp of a stored tuple.
    pub fn insertion_ts(&self) -> DbResult<Timestamp> {
        self.version(COL_INSERTION_TS)
    }

    /// Deletion timestamp of a stored tuple.
    pub fn deletion_ts(&self) -> DbResult<Timestamp> {
        self.version(COL_DELETION_TS)
    }

    /// Overwrites a stored tuple's deletion timestamp: in place in a row of
    /// its own, in a copy of a shared row (its frame is left as it is). A
    /// row whose first two fields are not timestamps is [`DbError::Schema`].
    pub fn set_deletion_ts(&mut self, t: Timestamp) -> DbResult<()> {
        let at = version_at(self.wire(), COL_DELETION_TS)
            .ok_or_else(|| DbError::Schema(format!("{self} has no deletion time")))?;
        self.wire_mut()[at..at + 8].copy_from_slice(&t.0.to_le_bytes());
        Ok(())
    }

    fn version(&self, i: usize) -> DbResult<Timestamp> {
        let wire = self.wire();
        match version_at(wire, i) {
            Some(at) => Ok(Timestamp(u64::from_le_bytes(field_bytes(wire, at)?))),
            None => self.try_get(i)?.as_time(),
        }
    }

    /// The fields in order. A built row's fields all decode, so this stops
    /// only at the end.
    fn fields(&self) -> impl Iterator<Item = Value> + '_ {
        let wire = self.wire();
        let mut dec = Decoder::new(&wire[2..]);
        (0..field_count(wire)).map_while(move |_| Value::decode(&mut dec).ok())
    }

    /// Writes this row into a page slot (`out`, exactly `desc.byte_width()`
    /// bytes, all written) through [`transcode_wire_to_fixed`]. A row of
    /// another field count, a value of another type or a string wider than
    /// its column is [`DbError::Schema`], worded by [`TupleDesc::check`]; so
    /// is an `out` of another width. `out` may then be partly written.
    pub fn write_fixed(&self, desc: &TupleDesc, out: &mut [u8]) -> DbResult<()> {
        if out.len() != desc.byte_width() {
            return Err(DbError::Schema(format!(
                "{} bytes for a {desc} row",
                out.len()
            )));
        }
        transcode_wire_to_fixed(desc, &mut Decoder::new(self.wire()), out).or_else(|e| {
            // The transcoder refuses exactly what `check` does; `check`
            // words it.
            desc.check(&self.values())?;
            Err(e)
        })
    }

    /// Appends the row's wire encoding: one copy.
    pub fn write_wire(&self, enc: &mut Encoder) {
        enc.put_raw(self.wire());
    }

    /// Reads one wire row: every tag, length and string is checked, then
    /// the row's bytes are copied into a tuple of their size. A row cut
    /// short, an unknown tag or a string that is not UTF-8 is
    /// [`DbError::Corrupt`].
    pub fn read_wire(dec: &mut Decoder<'_>) -> DbResult<Tuple> {
        let len = checked_row_len(dec.rest())?;
        Ok(Tuple::own(dec.take(len)?.into()))
    }

    /// Reads one wire row of a received `frame` with
    /// [`read_wire`](Self::read_wire)'s checks, but copies nothing: the
    /// row is its range of the frame and keeps the frame alive. `dec` must
    /// stand in `frame`, its rest the frame's tail — the decoder a reply's
    /// visitor is handed with its frame; any other is
    /// [`DbError::Internal`].
    pub fn read_shared(frame: &Arc<Vec<u8>>, dec: &mut Decoder<'_>) -> DbResult<Tuple> {
        let in_frame = |at: &usize| std::ptr::eq(frame[*at..].as_ptr(), dec.rest().as_ptr());
        let Some(start) = frame.len().checked_sub(dec.remaining()).filter(in_frame) else {
            return Err(DbError::Internal("a decoder outside its frame".into()));
        };
        let len = checked_row_len(dec.rest())?;
        dec.take(len)?;
        let end = start + len;
        Ok(match (u32::try_from(start), u32::try_from(end)) {
            (Ok(start), Ok(end)) => Tuple {
                held: Held::Frame {
                    frame: frame.clone(),
                    start,
                    end,
                },
            },
            _ => Tuple::own(frame[start..end].into()),
        })
    }
}

/// A built row's field count.
#[inline]
fn field_count(wire: &[u8]) -> usize {
    u16::from_le_bytes([wire[0], wire[1]]) as usize
}

/// Where version field `i` (0 or 1) of a built row keeps its 8 bytes, when
/// fields 0 through `i` are timestamps: a tag and 8 bytes each, at fixed
/// offsets.
#[inline]
fn version_at(wire: &[u8], i: usize) -> Option<usize> {
    let tag_at = |field: usize| 2 + 9 * field;
    (0..=i)
        .all(|f| wire.get(tag_at(f)) == Some(&Value::TIME_TAG))
        .then_some(tag_at(i) + 1)
}

/// Where field `i` of a built row starts.
#[inline]
fn seek(wire: &[u8], i: usize) -> DbResult<usize> {
    let len = field_count(wire);
    if i >= len {
        return Err(no_column(i, len));
    }
    // A stored row's user fields start right after its deletion time.
    let (mut at, from) = match version_at(wire, COL_DELETION_TS) {
        Some(deletion) if i >= NUM_VERSION_COLS => (deletion + 8, NUM_VERSION_COLS),
        _ => (2, 0),
    };
    for _ in from..i {
        at = field_end(wire, at)?;
    }
    Ok(at)
}

/// The length of the wire row `row` starts with, every tag, length and
/// string checked: a row cut short, an unknown tag or a string that is not
/// UTF-8 is [`DbError::Corrupt`].
fn checked_row_len(row: &[u8]) -> DbResult<usize> {
    let mut at = 2;
    for _ in 0..u16::from_le_bytes(field_bytes(row, 0)?) {
        let end = field_end(row, at)?;
        if row[at] == Value::STR_TAG && std::str::from_utf8(&row[at + 5..end]).is_err() {
            return Err(DbError::corrupt("invalid utf-8 in string"));
        }
        at = end;
    }
    Ok(at)
}

/// A row of `len` fields has no column `i`.
#[cold]
fn no_column(i: usize, len: usize) -> DbError {
    DbError::Schema(format!("no column {i} in a row of {len} fields"))
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        self.wire() == other.wire()
    }
}

impl Eq for Tuple {}

/// The field walker: where the field of a wire row that starts at `at`
/// ends — its tag, then its payload. An unknown tag or a field cut short is
/// [`DbError::Corrupt`]; a string's bytes are not looked at.
#[inline(always)]
fn field_end(wire: &[u8], at: usize) -> DbResult<usize> {
    let len = match wire.get(at) {
        Some(&Value::INT32_TAG) => 5,
        Some(&(Value::INT64_TAG | Value::TIME_TAG)) => 9,
        Some(&Value::STR_TAG) => 5 + u32::from_le_bytes(field_bytes(wire, at + 1)?) as usize,
        Some(&tag) => return Err(bad_tag("Value", tag)),
        None => return Err(cut_short(at)),
    };
    match at.checked_add(len) {
        Some(end) if end <= wire.len() => Ok(end),
        _ => Err(cut_short(at)),
    }
}

/// Bytes `v` takes in a wire row.
fn wire_size(v: &Value) -> usize {
    1 + match v {
        Value::Int32(_) => 4,
        Value::Int64(_) | Value::Time(_) => 8,
        Value::Str(s) => 4 + s.len(),
    }
}

/// Writes the field count, then `times` and `values` as [`Value`]'s codec
/// lays them out — a tag, then a payload — one copy a field. Returns the
/// bytes written, or `None` if they do not fit `wire`.
#[inline(always)]
fn write_fields(wire: &mut [u8], times: &[Timestamp], values: &[Value]) -> Option<usize> {
    let count = (times.len() + values.len()) as u16;
    let mut at = put(wire, 0, count.to_le_bytes())?;
    for t in times {
        at = put(wire, at, tagged::<8, 9>(Value::TIME_TAG, t.0.to_le_bytes()))?;
    }
    for v in values {
        at = match v {
            Value::Int32(x) => put(wire, at, tagged::<4, 5>(Value::INT32_TAG, x.to_le_bytes()))?,
            Value::Int64(x) => put(wire, at, tagged::<8, 9>(Value::INT64_TAG, x.to_le_bytes()))?,
            Value::Time(t) => put(wire, at, tagged::<8, 9>(Value::TIME_TAG, t.0.to_le_bytes()))?,
            Value::Str(s) => {
                let len = (s.len() as u32).to_le_bytes();
                let at = put(wire, at, tagged::<4, 5>(Value::STR_TAG, len))?;
                wire.get_mut(at..at + s.len())?
                    .copy_from_slice(s.as_bytes());
                at + s.len()
            }
        };
    }
    Some(at)
}

/// Copies `field` into `wire` at `at`; returns where the next one goes.
#[inline(always)]
fn put<const M: usize>(wire: &mut [u8], at: usize, field: [u8; M]) -> Option<usize> {
    wire.get_mut(at..at + M)?.copy_from_slice(&field);
    Some(at + M)
}

/// `tag`, then `payload`: `M` is `N + 1`.
#[inline(always)]
fn tagged<const N: usize, const M: usize>(tag: u8, payload: [u8; N]) -> [u8; M] {
    let mut field = [tag; M];
    field[1..].copy_from_slice(&payload);
    field
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
/// self-describing wire layout.
///
/// `deletion` overrides the stored deletion timestamp — the visibility check
/// may mask deletions that happened after the historical read time.
pub fn transcode_fixed_to_wire(
    desc: &TupleDesc,
    bytes: &[u8],
    deletion: Timestamp,
    enc: &mut Encoder,
) -> DbResult<()> {
    check_fixed_len(desc, bytes)?;
    enc.put_u16(desc.len() as u16);
    let masked = masked_column(desc);
    let mut off = 0;
    for (i, &ty) in desc.types().iter().enumerate() {
        let deletion = (Some(i) == masked).then_some(deletion);
        transcode_field(ty, &bytes[off..], deletion, enc)?;
        off += ty.width();
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
    let masked = masked_column(desc);
    for &i in cols {
        let deletion = (Some(i) == masked).then_some(deletion);
        transcode_field(
            desc.field_type(i),
            &bytes[desc.field_offset(i)..],
            deletion,
            enc,
        )?;
    }
    Ok(())
}

/// Field `i` of a stored row's slot, `deletion` in place of the stored
/// deletion time: the value the row [`Tuple::from_fixed`] builds would
/// answer [`Tuple::try_get`] with, read without building it — a number
/// straight off its bytes, a string checked and copied out. A slot cut
/// short or a string that is not UTF-8 is [`DbError::Corrupt`], as the
/// decode's is; a column the schema does not have is [`DbError::Schema`].
#[inline]
pub fn fixed_field(
    desc: &TupleDesc,
    bytes: &[u8],
    i: usize,
    deletion: Timestamp,
) -> DbResult<Value> {
    check_fixed_len(desc, bytes)?;
    if i >= desc.len() {
        return Err(no_column(i, desc.len()));
    }
    if i == COL_DELETION_TS && masked_column(desc).is_some() {
        return Ok(Value::Time(deletion));
    }
    let field = &bytes[desc.field_offset(i)..];
    Ok(match desc.field_type(i) {
        FieldType::Int32 => Value::Int32(i32::from_le_bytes(slot_bytes(field))),
        FieldType::Int64 => Value::Int64(i64::from_le_bytes(slot_bytes(field))),
        FieldType::Time => Value::Time(Timestamp(u64::from_le_bytes(slot_bytes(field)))),
        FieldType::FixedStr(n) => Value::Str(fixed_str(&field[..n as usize])?.to_owned()),
    })
}

/// The column a masked deletion time replaces: a stored row's deletion
/// time.
fn masked_column(desc: &TupleDesc) -> Option<usize> {
    desc.has_version_columns().then_some(COL_DELETION_TS)
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

/// Appends the stored field of type `ty` that `field` starts with, or
/// `deletion` in its place.
#[inline(always)]
fn transcode_field(
    ty: FieldType,
    field: &[u8],
    deletion: Option<Timestamp>,
    enc: &mut Encoder,
) -> DbResult<()> {
    match (ty, deletion) {
        (_, Some(t)) => enc.put_raw(&tagged::<8, 9>(Value::TIME_TAG, t.0.to_le_bytes())),
        // The fixed and wire encodings are both little-endian, so the
        // numeric payloads copy across verbatim, a field in one append.
        (FieldType::Int32, None) => {
            enc.put_raw(&tagged::<4, 5>(Value::INT32_TAG, slot_bytes(field)))
        }
        (FieldType::Int64, None) => {
            enc.put_raw(&tagged::<8, 9>(Value::INT64_TAG, slot_bytes(field)))
        }
        (FieldType::Time, None) => enc.put_raw(&tagged::<8, 9>(Value::TIME_TAG, slot_bytes(field))),
        (FieldType::FixedStr(n), None) => {
            enc.put_u8(Value::STR_TAG);
            enc.put_str(fixed_str(&field[..n as usize])?);
        }
    }
    Ok(())
}

/// A stored string column's text: its bytes up to the NUL padding, which
/// must be UTF-8.
fn fixed_str(raw: &[u8]) -> DbResult<&str> {
    std::str::from_utf8(unpadded(raw))
        .map_err(|_| DbError::corrupt("invalid utf-8 in fixed string"))
}

/// A stored string column's bytes up to its NUL padding.
fn unpadded(raw: &[u8]) -> &[u8] {
    let end = raw.iter().position(|&b| b == 0).unwrap_or(raw.len());
    &raw[..end]
}

/// The first `N` bytes of a stored field (the row's width has been
/// checked).
#[inline(always)]
fn slot_bytes<const N: usize>(field: &[u8]) -> [u8; N] {
    let mut bytes = [0u8; N];
    bytes.copy_from_slice(&field[..N]);
    bytes
}

/// The inverse of [`transcode_fixed_to_wire`]: one wire-layout row off `dec`
/// into `out` (a page slot: exactly `desc.byte_width()` bytes, all written).
/// A row that is cut short or is not of `desc`'s field count, types and
/// string widths is [`DbError::Corrupt`]: it came off the wire.
pub fn transcode_wire_to_fixed(
    desc: &TupleDesc,
    dec: &mut Decoder<'_>,
    out: &mut [u8],
) -> DbResult<()> {
    // Read by index off the bytes left, write by index into the slot, and
    // step `dec` past the row once at the end: a field is two bounds checks
    // and one copy.
    let wire = dec.rest();
    let n = u16::from_le_bytes(field_bytes(wire, 0)?) as usize;
    if n != desc.len() || out.len() != desc.byte_width() {
        return Err(DbError::corrupt(format!(
            "wire row of {n} fields for {desc}"
        )));
    }
    let (mut at, mut to) = (2, 0);
    for &ty in desc.types() {
        match ty {
            FieldType::Int32 => copy_field::<4, 5>(wire, &mut at, Value::INT32_TAG, out, &mut to)?,
            FieldType::Int64 => copy_field::<8, 9>(wire, &mut at, Value::INT64_TAG, out, &mut to)?,
            FieldType::Time => copy_field::<8, 9>(wire, &mut at, Value::TIME_TAG, out, &mut to)?,
            FieldType::FixedStr(width) => {
                let mut len = [0u8; 4];
                copy_field::<4, 5>(wire, &mut at, Value::STR_TAG, &mut len, &mut 0)?;
                let len = u32::from_le_bytes(len) as usize;
                let raw = wire.get(at..at + len).ok_or_else(|| cut_short(at))?;
                let slot = &mut out[to..to + width as usize];
                if len > slot.len() || std::str::from_utf8(raw).is_err() {
                    return Err(DbError::corrupt(format!("{len} wire bytes are no {ty}")));
                }
                slot[..len].copy_from_slice(raw);
                slot[len..].fill(0);
                (at, to) = (at + len, to + slot.len());
            }
        }
    }
    dec.take(at)?;
    Ok(())
}

/// The `N` bytes of `wire` at `at`.
#[inline(always)]
fn field_bytes<const N: usize>(wire: &[u8], at: usize) -> DbResult<[u8; N]> {
    let bytes = wire.get(at..at + N).and_then(|b| b.try_into().ok());
    bytes.ok_or_else(|| cut_short(at))
}

/// Copies the wire field at `at` — `tag`, then an `N`-byte payload; `M` is
/// `N + 1` — to `out` at `to` as its payload alone, and moves both past it.
#[inline(always)]
fn copy_field<const N: usize, const M: usize>(
    wire: &[u8],
    at: &mut usize,
    tag: u8,
    out: &mut [u8],
    to: &mut usize,
) -> DbResult<()> {
    let field: [u8; M] = field_bytes(wire, *at)?;
    if field[0] != tag {
        return Err(DbError::corrupt(format!(
            "wire tag {} where {tag} belongs",
            field[0]
        )));
    }
    out[*to..*to + N].copy_from_slice(&field[1..]);
    (*at, *to) = (*at + M, *to + N);
    Ok(())
}

#[cold]
fn cut_short(at: usize) -> DbError {
    DbError::corrupt(format!("wire row cut short at byte {at}"))
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.fields().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tuple")?;
        f.debug_list().entries(self.fields()).finish()
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
        let back = Tuple::from_fixed(&d, &bytes, Timestamp::ZERO).unwrap();
        assert_eq!(back, t);
        // The masked deletion time is the row's, not the slot's.
        let masked = Tuple::from_fixed(&d, &bytes, Timestamp(7)).unwrap();
        assert_eq!(masked.deletion_ts().unwrap(), Timestamp(7));
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
        t.set_deletion_ts(Timestamp(9)).unwrap();
        assert_eq!(t.deletion_ts().unwrap(), Timestamp(9));
        assert_eq!(t.user_values().len(), 3);
        // A row without the pair answers through its fields, or refuses.
        let plain = Tuple::new(vec![Value::Int64(3), Value::Int32(1)]);
        assert_eq!(plain.insertion_ts().unwrap(), Timestamp(3));
        assert!(plain.deletion_ts().is_err());
        assert!(plain.clone().set_deletion_ts(Timestamp(1)).is_err());
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
        let err = t.write_fixed(&d, &mut bytes).unwrap_err();
        assert!(
            matches!(&err, DbError::Schema(m) if m.contains("field 4 (name) expects str(8)")),
            "{err}"
        );
        // A buffer that is not the schema's width is refused, not overrun.
        assert!(sample().write_fixed(&d, &mut bytes[1..]).is_err());
    }

    /// A row is a 24-byte handle on exactly its wire bytes: the paper's row
    /// (two timestamps, an `Int64` key, thirteen `Int32`s) holds 94. The
    /// handle is a pointer and a length for a row of its own, and a frame
    /// pointer and a range for a shared one, so it needs a tag beside them.
    #[test]
    fn a_row_is_its_wire_bytes() {
        assert_eq!(std::mem::size_of::<Tuple>(), 24);
        let mut user = vec![Value::Int64(7)];
        user.extend((0..13).map(Value::Int32));
        let row = Tuple::versioned(Timestamp(1), Timestamp::ZERO, user);
        assert_eq!(row.wire().len(), 94);
        assert_eq!(row.to_vec().len(), 94);
    }

    /// A reply frame as the scan service sends it: a header, then `rows`.
    fn reply_frame(rows: &[Tuple]) -> Arc<Vec<u8>> {
        let mut enc = Encoder::new();
        enc.put_raw(b"head");
        for row in rows {
            row.write_wire(&mut enc);
        }
        Arc::new(enc.into_bytes())
    }

    fn read_all_shared(frame: &Arc<Vec<u8>>, n: usize) -> Vec<Tuple> {
        let mut dec = Decoder::new(&frame[4..]);
        let rows = (0..n)
            .map(|_| Tuple::read_shared(frame, &mut dec).unwrap())
            .collect();
        dec.finish().unwrap();
        rows
    }

    #[test]
    fn a_reply_row_outlives_its_siblings_and_its_frame() {
        let sent = vec![sample(), Tuple::new(vec![Value::Int32(3)]), sample()];
        let frame = reply_frame(&sent);
        let mut rows = read_all_shared(&frame, sent.len());
        assert!(rows.iter().all(|r| matches!(r.held, Held::Frame { .. })));
        // The frame's `Vec` goes with its last holder: the caller's handle
        // and every row but one are dropped first.
        let weak = Arc::downgrade(&frame);
        drop(frame);
        let last = rows.pop().unwrap();
        drop(rows);
        assert_eq!(weak.strong_count(), 1);
        assert_eq!(last, sent[2]);
        assert_eq!(last.get(4), Value::Str("colgate".into()));
        drop(last);
        assert_eq!(
            weak.strong_count(),
            0,
            "the frame is freed with its last row"
        );
    }

    #[test]
    fn writing_a_shared_row_leaves_its_siblings_alone() {
        let sent = vec![sample(), sample()];
        let frame = reply_frame(&sent);
        let before = frame.as_ref().clone();
        let mut rows = read_all_shared(&frame, 2);
        rows[0].set_deletion_ts(Timestamp(9)).unwrap();
        assert_eq!(rows[0].deletion_ts().unwrap(), Timestamp(9));
        assert!(matches!(rows[0].held, Held::Own(_)), "copied out");
        assert_eq!(rows[1], sent[1]);
        assert_eq!(rows[1].deletion_ts().unwrap(), Timestamp::ZERO);
        assert_eq!(*frame, before, "the frame's bytes are unchanged");
    }

    #[test]
    fn an_owned_and_a_shared_row_with_the_same_bytes_are_one_row() {
        let own = sample();
        let frame = reply_frame(std::slice::from_ref(&own));
        let shared = read_all_shared(&frame, 1).pop().unwrap();
        assert!(matches!(shared.held, Held::Frame { .. }));
        assert_eq!(own, shared);
        assert_eq!(shared, own);
        assert_eq!(own.to_string(), shared.to_string());
        assert_eq!(format!("{own:?}"), format!("{shared:?}"));
        assert_ne!(shared, Tuple::new(vec![Value::Int32(3)]));
    }

    /// A frame row gets `read_wire`'s refusals.
    #[test]
    fn a_shared_read_refuses_what_read_wire_refuses() {
        let mut bytes = reply_frame(&[sample()]).as_ref().clone();
        bytes.truncate(bytes.len() - 1);
        let frame = Arc::new(bytes);
        let mut dec = Decoder::new(&frame[4..]);
        let err = Tuple::read_shared(&frame, &mut dec).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        let mut dec = Decoder::new(&frame[4..]);
        assert!(Tuple::read_wire(&mut dec).unwrap_err().is_corrupt());
        // A decoder over other bytes has no range in this frame.
        let other = frame.as_ref().clone();
        let err = Tuple::read_shared(&frame, &mut Decoder::new(&other[4..])).unwrap_err();
        assert!(matches!(err, DbError::Internal(_)), "{err}");
    }

    /// A slot's field reads as the decoded row's does, the deletion time
    /// masked; a column past the end is a schema error.
    #[test]
    fn a_slot_field_reads_as_the_decoded_row() {
        let d = desc();
        let mut bytes = vec![0u8; d.byte_width()];
        sample().write_fixed(&d, &mut bytes).unwrap();
        let row = Tuple::from_fixed(&d, &bytes, Timestamp(7)).unwrap();
        for i in 0..d.len() {
            let field = fixed_field(&d, &bytes, i, Timestamp(7)).unwrap();
            assert_eq!(field, row.get(i), "column {i}");
        }
        let err = fixed_field(&d, &bytes, d.len(), Timestamp(7)).unwrap_err();
        assert!(matches!(err, DbError::Schema(_)), "{err}");
        let err = fixed_field(&d, &bytes[1..], 2, Timestamp(7)).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
    }
}
