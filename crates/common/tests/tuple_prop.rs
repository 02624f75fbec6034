//! Property tests for the fixed-width tuple codec: arbitrary schemas and
//! conforming rows survive the on-disk encoding exactly, and encode to
//! exactly the declared byte width.

use harbor_common::codec::Decoder;
use harbor_common::tuple::FixedLayout;
use harbor_common::{FieldType, Timestamp, Tuple, TupleDesc, Value};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fixed_encoding_round_trips_any_schema(
        (types, user_values) in schema_and_row(),
        ins in 1u64..u64::MAX,
        del in proptest::option::of(1u64..u64::MAX),
    ) {
        let names: Vec<String> = (0..types.len()).map(|i| format!("f{i}")).collect();
        let fields: Vec<(&str, FieldType)> = names
            .iter()
            .map(|n| n.as_str())
            .zip(types.iter().copied())
            .collect();
        let desc = TupleDesc::with_version_columns(fields);
        let tuple = Tuple::versioned(
            Timestamp(ins),
            del.map(Timestamp).unwrap_or(Timestamp::ZERO),
            user_values,
        );
        // Every byte of the declared width is written, whatever was there.
        let mut bytes = vec![0xffu8; desc.byte_width()];
        tuple.write_fixed(&desc, &mut bytes).unwrap();
        let mut dec = Decoder::new(&bytes);
        let back = Tuple::read_fixed(&desc, &mut dec).unwrap();
        dec.finish().unwrap();
        prop_assert_eq!(&back, &tuple);
        // The layout a loader builds once encodes what it decodes.
        let layout = FixedLayout::new(&desc);
        let mut again = vec![0xa5u8; layout.width()];
        layout.encode(tuple.values(), &mut again).unwrap();
        prop_assert_eq!(&again, &bytes);
        prop_assert_eq!(layout.decode(&again).unwrap(), tuple);
    }

    #[test]
    fn truncated_fixed_encoding_errors_cleanly(
        (types, user_values) in schema_and_row(),
        cut in 0usize..8,
    ) {
        let names: Vec<String> = (0..types.len()).map(|i| format!("f{i}")).collect();
        let fields: Vec<(&str, FieldType)> = names
            .iter()
            .map(|n| n.as_str())
            .zip(types.iter().copied())
            .collect();
        let desc = TupleDesc::with_version_columns(fields);
        let tuple = Tuple::versioned(Timestamp(1), Timestamp::ZERO, user_values);
        let mut bytes = vec![0u8; desc.byte_width()];
        tuple.write_fixed(&desc, &mut bytes).unwrap();
        let cut = cut.min(bytes.len()).max(1);
        let truncated = &bytes[..bytes.len() - cut];
        let mut dec = Decoder::new(truncated);
        // Must error (no panic); the page layer guarantees full widths, so
        // any short read indicates corruption.
        prop_assert!(Tuple::read_fixed(&desc, &mut dec).is_err());
    }
}
