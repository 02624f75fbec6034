//! Property tests for the row. A `Tuple` is its wire bytes, so what it says
//! of its fields must be what the values it was built from say, its bytes
//! must be the wire layout written the long way (a `u16` count, then each
//! value through `Value`'s codec), and bytes that are not a row are refused
//! as `Corrupt`, never panicked over. The fixed-width slot encoding
//! round-trips any schema through `write_fixed` and `from_fixed`.

use harbor_common::codec::{Decoder, Encoder, Wire};
use harbor_common::{DbResult, FieldType, Timestamp, Tuple, TupleDesc, Value};
use proptest::prelude::*;

/// Any value of the four types; strings may be empty, multibyte, or long
/// enough that the row outgrows the stack buffer rows are built in.
fn any_value() -> BoxedStrategy<Value> {
    prop_oneof![
        any::<i32>().prop_map(Value::Int32),
        any::<i64>().prop_map(Value::Int64),
        any::<u64>().prop_map(|t| Value::Time(Timestamp(t))),
        "[a-zé€日]{0,6}".prop_map(Value::Str),
        "[a-z€]{60,120}".prop_map(Value::Str),
    ]
    .boxed()
}

fn any_row() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(any_value(), 0..12)
}

/// The wire layout written the long way.
fn reference_wire(values: &[Value]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u16(values.len() as u16);
    Value::encode_all(values, &mut enc);
    enc.into_bytes()
}

fn read_one(bytes: &[u8]) -> DbResult<Tuple> {
    Tuple::read_wire(&mut Decoder::new(bytes))
}

fn field_type() -> impl Strategy<Value = FieldType> {
    prop_oneof![
        Just(FieldType::Int32),
        Just(FieldType::Int64),
        (1u16..24).prop_map(FieldType::FixedStr),
    ]
}

fn value_for(ty: FieldType) -> BoxedStrategy<Value> {
    match ty {
        FieldType::Int32 => any::<i32>().prop_map(Value::Int32).boxed(),
        FieldType::Int64 => any::<i64>().prop_map(Value::Int64).boxed(),
        FieldType::Time => (0u64..u64::MAX)
            .prop_map(|t| Value::Time(Timestamp(t)))
            .boxed(),
        FieldType::FixedStr(n) => {
            // ASCII so byte length == char count <= n.
            proptest::collection::vec(0x20u8..0x7f, 0..=n as usize)
                .prop_map(|bytes| Value::Str(String::from_utf8(bytes).unwrap()))
                .boxed()
        }
    }
}

fn schema_and_row() -> impl Strategy<Value = (Vec<FieldType>, Vec<Value>)> {
    proptest::collection::vec(field_type(), 1..10).prop_flat_map(|types| {
        let values: Vec<BoxedStrategy<Value>> = types.iter().map(|t| value_for(*t)).collect();
        (Just(types), values)
    })
}

fn stored_desc(types: &[FieldType]) -> TupleDesc {
    let names: Vec<String> = (0..types.len()).map(|i| format!("f{i}")).collect();
    let fields: Vec<(&str, FieldType)> = names
        .iter()
        .map(|n| n.as_str())
        .zip(types.iter().copied())
        .collect();
    TupleDesc::with_version_columns(fields)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `get`, `try_get`, `values`, `len` and `Display` say what the values
    /// the row was built from say; a column past the end is refused.
    #[test]
    fn accessors_agree_with_the_values(values in any_row()) {
        let row = Tuple::new(values.clone());
        prop_assert_eq!(row.len(), values.len());
        prop_assert_eq!(row.is_empty(), values.is_empty());
        prop_assert_eq!(&row.values(), &values);
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(&row.get(i), v);
            prop_assert_eq!(&row.try_get(i).unwrap(), v);
        }
        prop_assert!(row.try_get(values.len()).is_err());
        let shown: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        prop_assert_eq!(row.to_string(), format!("[{}]", shown.join(", ")));
        prop_assert_eq!(row.into_values(), values.clone());
        // A stored row: its user fields are read past the version pair.
        let stored = Tuple::versioned(Timestamp(3), Timestamp(9), values.clone());
        prop_assert_eq!(&stored.user_values(), &values);
        for (i, v) in values.iter().enumerate() {
            prop_assert_eq!(&stored.get(i + 2), v);
        }
        prop_assert_eq!(stored.deletion_ts().unwrap(), Timestamp(9));
    }

    /// The row's bytes are the long way's, and read back as the same row.
    #[test]
    fn write_wire_is_the_count_then_the_values(values in any_row()) {
        let want = reference_wire(&values);
        let row = Tuple::new(values);
        let mut got = Encoder::new();
        row.write_wire(&mut got);
        prop_assert_eq!(got.as_slice(), &want[..]);
        prop_assert_eq!(read_one(&want).unwrap(), row);
    }

    /// A row cut short, a field with a tag no value has, a string longer
    /// than the bytes left and a string that is not UTF-8 are `Corrupt`.
    #[test]
    fn read_wire_refuses_what_is_not_a_row(
        values in any_row(),
        cut in 1usize..64,
        tag in 4u8..=255,
        claimed in 1u32..1000,
    ) {
        let wire = reference_wire(&values);
        let truncated = &wire[..wire.len().saturating_sub(cut)];
        // The row's fields and then one more, written by hand.
        let one_more = |field: &[u8]| {
            let mut bad = ((values.len() + 1) as u16).to_le_bytes().to_vec();
            bad.extend_from_slice(&wire[2..]);
            bad.extend_from_slice(field);
            bad
        };
        let mut overlong = vec![Value::STR_TAG];
        overlong.extend_from_slice(&claimed.to_le_bytes());
        overlong.extend(std::iter::repeat_n(b'x', claimed as usize - 1));
        let mut not_utf8 = vec![Value::STR_TAG];
        not_utf8.extend_from_slice(&2u32.to_le_bytes());
        not_utf8.extend_from_slice(&[0xff, 0xfe]);
        for bad in [
            truncated.to_vec(),
            one_more(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]),
            one_more(&overlong),
            one_more(&not_utf8),
        ] {
            match read_one(&bad) {
                Err(e) => prop_assert!(e.is_corrupt(), "{}", e),
                Ok(row) => prop_assert!(false, "{:?} read as {}", bad, row),
            }
        }
    }

    /// `decode_n` of k rows leaves the decoder exactly at the end of the
    /// k-th, whatever follows.
    #[test]
    fn decode_n_stops_at_the_end_of_the_kth_row(
        rows in proptest::collection::vec(any_row(), 0..6),
        tail in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let tuples: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
        let mut enc = Encoder::new();
        for t in &tuples {
            t.write_wire(&mut enc);
        }
        enc.put_raw(&tail);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        prop_assert_eq!(Tuple::decode_n(&mut dec, tuples.len()).unwrap(), tuples);
        prop_assert_eq!(dec.rest(), &tail[..]);
    }

    #[test]
    fn fixed_encoding_round_trips_any_schema(
        (types, user_values) in schema_and_row(),
        ins in 1u64..u64::MAX,
        del in proptest::option::of(1u64..u64::MAX),
    ) {
        let desc = stored_desc(&types);
        let del = del.map(Timestamp).unwrap_or(Timestamp::ZERO);
        let tuple = Tuple::versioned(Timestamp(ins), del, user_values);
        // Every byte of the declared width is written, whatever was there.
        let mut bytes = vec![0xffu8; desc.byte_width()];
        tuple.write_fixed(&desc, &mut bytes).unwrap();
        let mut again = vec![0xa5u8; desc.byte_width()];
        tuple.write_fixed(&desc, &mut again).unwrap();
        prop_assert_eq!(&again, &bytes);
        let back = Tuple::from_fixed(&desc, &bytes, del).unwrap();
        prop_assert_eq!(&back, &tuple);
        prop_assert_eq!(back.insertion_ts().unwrap(), Timestamp(ins));
        prop_assert_eq!(back.deletion_ts().unwrap(), del);
    }

    #[test]
    fn truncated_fixed_encoding_errors_cleanly(
        (types, user_values) in schema_and_row(),
        cut in 0usize..8,
    ) {
        let desc = stored_desc(&types);
        let tuple = Tuple::versioned(Timestamp(1), Timestamp::ZERO, user_values);
        let mut bytes = vec![0u8; desc.byte_width()];
        tuple.write_fixed(&desc, &mut bytes).unwrap();
        let cut = cut.min(bytes.len()).max(1);
        let truncated = &bytes[..bytes.len() - cut];
        // Must error (no panic); the page layer guarantees full widths, so
        // any short read indicates corruption.
        prop_assert!(Tuple::from_fixed(&desc, truncated, Timestamp::ZERO).is_err());
    }
}
