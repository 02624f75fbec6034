//! The one module that knows how a field is laid out.
//!
//! The wire protocols, the WAL and the small on-disk records all share one
//! compact, deterministic binary encoding, and three rules keep every
//! format readable in one place:
//!
//! 1. **Field codecs live here, once.** [`Wire`] is implemented in this
//!    file for the integers, `bool`, `String`, `Vec<T>` (a `u32` count, the
//!    one count guard, then the elements), `Option<T>` (a `bool`, then
//!    `T`), `Box<T>`, `BTreeMap<K, V>` (a `Vec` of its entries in key
//!    order) and tuples of two to four. A `usize` crosses as a `u32`. The
//!    id newtypes declare theirs beside their definitions.
//! 2. **One declaration per type.** [`wire_enum!`](crate::wire_enum) and
//!    [`wire_struct!`](crate::wire_struct) take a type as it is written plus
//!    a tag per variant and emit the type, `encode`, `decode`, `TAGS` and
//!    the unknown-tag arm (`Corrupt("bad <Type> tag N")`): a variant's tag
//!    and its field list each appear once in the source, and a new frame
//!    is one line.
//! 3. **What is written by hand is an arm over the field codecs, never a
//!    second encoding**, and there is a reason for each: `Request`'s begin
//!    marker (a prefix of the marked frame, decoded without recursion) and
//!    its `LastUpdate` (a statement's own `Update` frame, then the PREPARE
//!    trailer); `DbError`'s link class, which crosses as `Protocol`;
//!    `Tuple`'s `u16` field count; `FieldType`'s width, present for every
//!    type; `TuplesFrameBuilder`'s patch offsets; the magic in front of a
//!    small file ([`to_file`]); and a segment directory's header page and a
//!    log frame's header, fixed layouts written field after field.
//!
//! A slotted page's header is read at fixed offsets and does not go
//! through here.

use crate::error::{DbError, DbResult};
use std::collections::BTreeMap;

/// Append-only encoder over a plain `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Raw bytes with no length prefix (caller knows the width).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Overwrites 4 bytes at `at` with `v` (little-endian). Used to patch a
    /// placeholder written earlier — e.g. a batch row count or frame length
    /// that is only known once the batch is fully encoded.
    ///
    /// Panics if `at + 4` exceeds the bytes written so far.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Makes room for `additional` more bytes, doubling the buffer as a push
    /// would, but not past `most` bytes unless `additional` needs more.
    pub fn reserve_up_to(&mut self, additional: usize, most: usize) {
        let (len, cap) = (self.buf.len(), self.buf.capacity());
        if cap - len < additional {
            let want = (2 * cap).min(most).max(len + additional);
            self.buf.reserve_exact(want - len);
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// The most `Box`es a decoded value may open inside one another: deeper is
/// [`DbError::Corrupt`]. Decoding, evaluating and dropping a boxed chain
/// recurse, so an unbounded one lets a peer overflow a thread's stack. The
/// SQL planner refuses an expression tree deeper than this.
pub const MAX_DEPTH: usize = 64;

/// Consuming decoder over a byte slice. All reads are bounds-checked and
/// return [`DbError::Corrupt`] on underrun, never panicking on hostile input.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    /// `Box`es open around the value being decoded.
    depth: usize,
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, depth: 0 }
    }

    fn need(&self, n: usize) -> DbResult<()> {
        if self.buf.len() < n {
            Err(DbError::corrupt(format!(
                "decode underrun: need {n} bytes, have {}",
                self.buf.len()
            )))
        } else {
            Ok(())
        }
    }

    /// The next `n` bytes, borrowed.
    pub fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        self.need(n)?;
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub fn get_u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    #[expect(
        clippy::unwrap_used,
        reason = "`take` returned exactly the width asked for"
    )]
    pub fn get_u16(&mut self) -> DbResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    #[expect(
        clippy::unwrap_used,
        reason = "`take` returned exactly the width asked for"
    )]
    pub fn get_u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[expect(
        clippy::unwrap_used,
        reason = "`take` returned exactly the width asked for"
    )]
    pub fn get_u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[expect(
        clippy::unwrap_used,
        reason = "`take` returned exactly the width asked for"
    )]
    pub fn get_i32(&mut self) -> DbResult<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[expect(
        clippy::unwrap_used,
        reason = "`take` returned exactly the width asked for"
    )]
    pub fn get_i64(&mut self) -> DbResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_bool(&mut self) -> DbResult<bool> {
        Ok(self.get_u8()? != 0)
    }

    /// Length-prefixed byte string.
    pub fn get_bytes(&mut self) -> DbResult<Vec<u8>> {
        let n = self.get_u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Raw bytes of a known width.
    pub fn get_raw(&mut self, n: usize) -> DbResult<Vec<u8>> {
        Ok(self.take(n)?.to_vec())
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> DbResult<String> {
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes).map_err(|_| DbError::corrupt("invalid utf-8 in string"))
    }

    /// Everything not yet decoded.
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Asserts the buffer was fully consumed.
    pub fn finish(self) -> DbResult<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DbError::corrupt(format!(
                "{} trailing bytes after decode",
                self.buf.len()
            )))
        }
    }
}

/// A small file's bytes: a four-byte `magic`, then `value`.
pub fn to_file<T: Wire>(magic: &[u8; 4], value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_raw(magic);
    value.encode(&mut enc);
    enc.into_bytes()
}

/// The value in a file [`to_file`] wrote under `magic`. Another magic, a
/// short file and trailing bytes are `Corrupt`.
pub fn from_file<T: Wire>(magic: &[u8; 4], bytes: &[u8]) -> DbResult<T> {
    let mut dec = Decoder::new(bytes);
    if dec.take(magic.len())? != magic {
        let magic = String::from_utf8_lossy(magic);
        return Err(DbError::corrupt(format!("not a {magic} file")));
    }
    let value = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

/// Types with a binary layout: a field codec below, or a declaration made
/// with [`wire_enum!`](crate::wire_enum) / [`wire_struct!`](crate::wire_struct).
pub trait Wire: Sized {
    fn encode(&self, enc: &mut Encoder);
    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self>;

    /// The elements of a sequence, after its count. `u8` overrides both
    /// directions with one copy.
    #[inline]
    fn encode_all(items: &[Self], enc: &mut Encoder) {
        for item in items {
            item.encode(enc);
        }
    }

    /// `n` elements, `n` having been read from the buffer: it is checked
    /// against the bytes left before anything is allocated for it.
    #[inline]
    fn decode_n(dec: &mut Decoder<'_>, n: usize) -> DbResult<Vec<Self>> {
        let mut out = Vec::with_capacity(checked_count(dec, n)?);
        for _ in 0..n {
            out.push(Self::decode(dec)?);
        }
        Ok(out)
    }

    fn to_vec(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    fn from_slice(buf: &[u8]) -> DbResult<Self> {
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        dec.finish()?;
        Ok(v)
    }
}

/// Validates a wire-declared element count before allocating for it: every
/// element encodes to at least one byte, so a count beyond the bytes still
/// in the buffer is provably corrupt. Without this check a mutated length
/// prefix (u32::MAX) would make `Vec::with_capacity` allocate gigabytes
/// before the first element decode ever fails.
fn checked_count(dec: &Decoder<'_>, n: usize) -> DbResult<usize> {
    if n > dec.remaining() {
        return Err(DbError::corrupt(format!(
            "wire count {n} exceeds {} remaining bytes",
            dec.remaining()
        )));
    }
    Ok(n)
}

/// What every declared enum's decoder makes of a tag no variant owns.
pub fn bad_tag(ty: &str, tag: u8) -> DbError {
    DbError::corrupt(format!("bad {ty} tag {tag}"))
}

macro_rules! wire_scalars {
    ($($ty:ty: $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            #[inline]
            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }
            #[inline]
            fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
                dec.$get()
            }
        }
    )*};
}

wire_scalars! {
    u16: put_u16, get_u16;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    i32: put_i32, get_i32;
    i64: put_i64, get_i64;
    bool: put_bool, get_bool;
}

impl Wire for u8 {
    #[inline]
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
    #[inline]
    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        dec.get_u8()
    }
    #[inline]
    fn encode_all(items: &[Self], enc: &mut Encoder) {
        enc.put_raw(items);
    }
    #[inline]
    fn decode_n(dec: &mut Decoder<'_>, n: usize) -> DbResult<Vec<Self>> {
        dec.get_raw(n)
    }
}

/// An index or a column number crosses as a `u32`.
impl Wire for usize {
    #[inline]
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self as u32);
    }
    #[inline]
    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        Ok(dec.get_u32()? as usize)
    }
}

impl Wire for String {
    #[inline]
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    #[inline]
    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        dec.get_str()
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn encode(&self, enc: &mut Encoder) {
        self.len().encode(enc);
        T::encode_all(self, enc);
    }
    #[inline]
    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        let n = usize::decode(dec)?;
        T::decode_n(dec, n)
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn encode(&self, enc: &mut Encoder) {
        self.is_some().encode(enc);
        if let Some(v) = self {
            v.encode(enc);
        }
    }
    #[inline]
    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        Ok(if bool::decode(dec)? {
            Some(T::decode(dec)?)
        } else {
            None
        })
    }
}

impl<T: Wire> Wire for Box<T> {
    #[inline]
    fn encode(&self, enc: &mut Encoder) {
        (**self).encode(enc);
    }
    #[inline]
    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        if dec.depth == MAX_DEPTH {
            return Err(DbError::corrupt("value nests too deep"));
        }
        dec.depth += 1;
        let value = T::decode(dec);
        dec.depth -= 1;
        value.map(Box::new)
    }
}

/// Entries in key order, laid out as the `Vec` of them.
impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, enc: &mut Encoder) {
        self.len().encode(enc);
        for (k, v) in self {
            k.encode(enc);
            v.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
        Ok(Vec::<(K, V)>::decode(dec)?.into_iter().collect())
    }
}

macro_rules! wire_tuples {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            #[inline]
            fn encode(&self, enc: &mut Encoder) {
                $(self.$i.encode(enc);)+
            }
            #[inline]
            fn decode(dec: &mut Decoder<'_>) -> DbResult<Self> {
                Ok(($($t::decode(dec)?,)+))
            }
        }
    )*};
}

wire_tuples! { (A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3) }

/// Declares an enum and its wire layout together: each variant is written
/// `TAG => Variant`, `TAG => Variant(T, ..)` (up to three fields) or
/// `TAG => Variant { field: T, .. }`, and crosses as the tag byte, then its
/// fields in the order written, each through its own [`Wire`] codec.
/// Attributes and doc comments pass through. `TAG as NAME` also declares
/// `Type::NAME`, for code that writes or checks that tag itself.
///
/// Emits the type, `impl Wire`, `Type::TAGS` (every tag a frame can open
/// with) and `Type::decode_tagged(tag, dec)`, the decoder behind the tag
/// byte; a tag no variant owns is `Corrupt("bad Type tag N")`.
///
/// A trailing `by_hand [TAG, ..] { variants }` block adds variants the
/// declaration cannot express. The type then supplies
/// `fn encode_by_hand(&self, &mut Encoder)`, called for exactly those
/// variants, and — when the block names tags — `fn decode_by_hand(tag,
/// &mut Decoder) -> DbResult<Self>`, called for every tag that is not
/// declared, which refuses what it does not own with [`bad_tag`].
#[macro_export]
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag:literal $(as $tconst:ident)? => $var:ident
                $( ( $t0:ty $(, $t1:ty $(, $t2:ty)?)? ) )?
                $( { $( $(#[$fmeta:meta])* $f:ident : $fty:ty ),* $(,)? } )?
            ),* $(,)?
        }
        $( by_hand [$($htag:literal $(as $hconst:ident)?),*] { $($hand:tt)* } )?
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $var
                $( ( $t0 $(, $t1 $(, $t2)?)? ) )?
                $( { $( $(#[$fmeta])* $f : $fty ),* } )?,
            )*
            $($($hand)*)?
        }

        impl $name {
            /// Every tag a frame of this type can open with.
            pub const TAGS: &'static [u8] = &[$($tag,)* $($($htag,)*)?];
            $($(
                /// The variant's wire tag.
                pub const $tconst: u8 = $tag;
            )?)*
            $($($(
                /// The variant's wire tag.
                pub const $hconst: u8 = $htag;
            )?)*)?

            /// Decodes what follows the tag byte `tag`.
            #[inline]
            fn decode_tagged(
                tag: u8,
                dec: &mut $crate::codec::Decoder<'_>,
            ) -> $crate::DbResult<Self> {
                Ok(match tag {
                    $(
                        $tag => Self::$var
                        $( (
                            <$t0 as $crate::codec::Wire>::decode(dec)?
                            $(, <$t1 as $crate::codec::Wire>::decode(dec)?
                            $(, <$t2 as $crate::codec::Wire>::decode(dec)?)?)?
                        ) )?
                        $( { $( $f: <$fty as $crate::codec::Wire>::decode(dec)? ),* } )?,
                    )*
                    t => return $crate::wire_enum!(@undeclared $name t dec $([$($htag)*])?),
                })
            }
        }

        impl $crate::codec::Wire for $name {
            #[inline]
            fn encode(&self, enc: &mut $crate::codec::Encoder) {
                match self {
                    $(
                        Self::$var
                        $( (
                            $crate::wire_enum!(@name a $t0)
                            $(, $crate::wire_enum!(@name b $t1)
                            $(, $crate::wire_enum!(@name c $t2))?)?
                        ) )?
                        $( { $($f),* } )?
                        => {
                            enc.put_u8($tag);
                            $(
                                <$t0 as $crate::codec::Wire>::encode(a, enc);
                                $(
                                    <$t1 as $crate::codec::Wire>::encode(b, enc);
                                    $(<$t2 as $crate::codec::Wire>::encode(c, enc);)?
                                )?
                            )?
                            $($( <$fty as $crate::codec::Wire>::encode($f, enc); )*)?
                        }
                    )*
                    $( _ => $crate::wire_enum!(@by_hand self enc [$($htag)*]), )?
                }
            }

            #[inline]
            fn decode(dec: &mut $crate::codec::Decoder<'_>) -> $crate::DbResult<Self> {
                let tag = dec.get_u8()?;
                Self::decode_tagged(tag, dec)
            }
        }
    };
    // A binding for a tuple variant's field (the type only says there is one).
    (@name $x:ident $t:ty) => { $x };
    // The two hooks of a `by_hand` block; its tag list only says the block is there.
    (@by_hand $this:ident $enc:ident [$($htag:literal)*]) => { $this.encode_by_hand($enc) };
    (@undeclared $name:ident $t:ident $dec:ident $([])?) => {
        Err($crate::codec::bad_tag(stringify!($name), $t))
    };
    (@undeclared $name:ident $t:ident $dec:ident [$($htag:literal)+]) => {
        $name::decode_by_hand($t, $dec)
    };
}

/// Declares a struct and its wire layout together: the fields cross in the
/// order written, each through its own [`Wire`] codec, with nothing before,
/// between or after them. Takes `struct Name { field: T, .. }` or the
/// newtype `struct Name(T);`; attributes and doc comments pass through.
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $f:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $f : $fty ),*
        }

        impl $crate::codec::Wire for $name {
            #[inline]
            fn encode(&self, enc: &mut $crate::codec::Encoder) {
                $( <$fty as $crate::codec::Wire>::encode(&self.$f, enc); )*
            }
            #[inline]
            fn decode(dec: &mut $crate::codec::Decoder<'_>) -> $crate::DbResult<Self> {
                Ok($name { $( $f: <$fty as $crate::codec::Wire>::decode(dec)? ),* })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident ( $fvis:vis $fty:ty );
    ) => {
        $(#[$meta])*
        $vis struct $name($fvis $fty);

        impl $crate::codec::Wire for $name {
            #[inline]
            fn encode(&self, enc: &mut $crate::codec::Encoder) {
                <$fty as $crate::codec::Wire>::encode(&self.0, enc);
            }
            #[inline]
            fn decode(dec: &mut $crate::codec::Decoder<'_>) -> $crate::DbResult<Self> {
                <$fty as $crate::codec::Wire>::decode(dec).map($name)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u16(513);
        e.put_u32(70_000);
        e.put_u64(u64::MAX - 1);
        e.put_i32(-5);
        e.put_i64(i64::MIN);
        e.put_bool(true);
        e.put_str("héllo");
        e.put_bytes(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u16().unwrap(), 513);
        assert_eq!(d.get_u32().unwrap(), 70_000);
        assert_eq!(d.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.get_i32().unwrap(), -5);
        assert_eq!(d.get_i64().unwrap(), i64::MIN);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "héllo");
        assert_eq!(d.get_bytes().unwrap(), vec![1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn underrun_is_an_error_not_a_panic() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(d.get_u32().is_err());
    }

    #[test]
    fn bogus_length_prefix_is_rejected() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX); // claims 4 GiB payload
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.get_bytes().is_err());
    }

    #[test]
    fn finish_rejects_trailing_garbage() {
        let d = Decoder::new(&[0]);
        assert!(d.finish().is_err());
    }
}
