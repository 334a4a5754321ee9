//! Property tests: the binary codec and the metadata format are round-trip
//! exact for arbitrary inputs (DESIGN.md invariant 4).

use proptest::collection::{btree_map, vec};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

#[derive(Debug, Clone, PartialEq)]
enum TreeValue {
    Null,
    Bool(bool),
    Int(i64),
    Uint(u64),
    Float(u32), // bit pattern, to keep Eq semantics simple
    Text(String),
    Blob(Vec<u8>),
    Run(Vec<u8>),
    List(Vec<TreeValue>),
    Table(BTreeMap<String, TreeValue>),
    Labeled { label: String, inner: Box<TreeValue> },
}
codec::wire_enum!(TreeValue {
    Null, Bool(v), Int(v), Uint(v), Float(v), Text(v), Blob(v), Run(v), List(v), Table(v),
    Labeled { label, inner },
});

fn arb_tree() -> impl Strategy<Value = TreeValue> {
    let leaf = prop_oneof![
        Just(TreeValue::Null),
        any::<bool>().prop_map(TreeValue::Bool),
        any::<i64>().prop_map(TreeValue::Int),
        any::<u64>().prop_map(TreeValue::Uint),
        any::<u32>().prop_map(TreeValue::Float),
        ".*".prop_map(TreeValue::Text),
        vec(any::<u8>(), 0..64).prop_map(TreeValue::Blob),
        vec(any::<u8>(), 0..64).prop_map(TreeValue::Run),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..8).prop_map(TreeValue::List),
            btree_map("[a-z]{1,8}", inner.clone(), 0..6).prop_map(TreeValue::Table),
            ("[a-z]{0,12}", inner).prop_map(|(label, v)| TreeValue::Labeled {
                label,
                inner: Box::new(v)
            }),
        ]
    })
}

/// `len` bytes that exercise every varint width of the legacy form.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 256) as u8).collect()
}

/// A struct whose bulk field sits between two small ones.
#[derive(Debug, Clone, PartialEq)]
struct Holder {
    before: u8,
    blob: Vec<u8>,
    after: u8,
}
codec::wire_struct!(Holder { before, blob, after });

/// What `Holder` encoded to when a `Vec<u8>` was a sequence of tagged
/// bytes: a `VecDeque<u8>` still writes that form.
struct LegacyHolder {
    before: u8,
    blob: VecDeque<u8>,
    after: u8,
}
codec::wire_struct!(LegacyHolder { before, blob, after });

#[test]
fn byte_vec_roundtrips_as_one_raw_run_at_every_length_class() {
    for len in [0, 1, 127, 128, 65_536, 65_537, 200_000] {
        let buf = pattern(len);
        let bytes = codec::to_bytes(&buf);
        // Tag, varint length, then the bytes verbatim.
        let mut head = vec![0x0B];
        codec::varint::write_u64(&mut head, len as u64);
        assert_eq!(bytes.len(), head.len() + len, "len {len}");
        assert!(bytes.starts_with(&head) && bytes.ends_with(&buf), "len {len}");
        assert_eq!(codec::from_bytes::<Vec<u8>>(&bytes).unwrap(), buf, "len {len}");
    }
}

/// `to_bytes(&vec![0u8, 1, 127, 128, 255])` as the build before `Wire`
/// wrote it: a `SEQ` of five tagged `UINT`s.
const PARENT_BYTE_VEC: &[u8] = &[
    0x0E, 0x05, 0x04, 0x00, 0x04, 0x01, 0x04, 0x7F, 0x04, 0x80, 0x01, 0x04, 0xFF, 0x01,
];

#[test]
fn bare_byte_vec_from_before_the_run_still_decodes() {
    let want = vec![0u8, 1, 127, 128, 255];
    assert_eq!(codec::from_bytes::<Vec<u8>>(PARENT_BYTE_VEC).unwrap(), want);
    // Written again, it is the run: tag, length, the five bytes.
    assert_eq!(codec::to_bytes(&want), [0x0B, 0x05, 0, 1, 127, 128, 255]);
}

#[test]
fn byte_vec_reads_the_legacy_sequence_form() {
    for len in [0, 1, 127, 128, 70_000] {
        let legacy = LegacyHolder { before: 1, blob: pattern(len).into(), after: 2 };
        let old = codec::to_bytes(&legacy);
        let back: Holder = codec::from_bytes(&old).unwrap();
        assert_eq!(back.blob, pattern(len), "len {len}");
        assert_eq!((back.before, back.after), (1, 2));
        // The writer only ever emits the raw form, which is never longer.
        let new = codec::to_bytes(&back);
        assert!(new.len() <= old.len(), "len {len}: {} > {}", new.len(), old.len());
        assert_eq!(codec::from_bytes::<Holder>(&new).unwrap(), back);
    }
    // A legacy element that is not a byte is an error, not a truncation.
    let old = codec::to_bytes(&vec![1u32, 256]);
    assert!(matches!(
        codec::from_bytes::<Vec<u8>>(&old),
        Err(codec::Error::IntOutOfRange { ty: "u8", .. })
    ));
}

#[test]
fn struct_holding_a_byte_vec_is_skipped_as_an_unknown_field() {
    struct Wide {
        before: u8,
        blob: Vec<u8>,
        nested: Holder,
        maybe: Option<Vec<u8>>,
        after: u8,
    }
    codec::wire_struct!(Wide { before, blob, nested, maybe, after });
    #[derive(Debug, PartialEq)]
    struct Narrow {
        before: u8,
        after: u8,
    }
    codec::wire_struct!(Narrow { before, after });
    let wide = Wide {
        before: 7,
        blob: pattern(70_000),
        nested: Holder { before: 1, blob: pattern(300), after: 2 },
        maybe: Some(pattern(5)),
        after: 9,
    };
    let narrow: Narrow = codec::from_bytes(&codec::to_bytes(&wide)).unwrap();
    assert_eq!(narrow, Narrow { before: 7, after: 9 });
}

#[test]
fn every_truncation_of_a_byte_vec_encoding_is_an_error() {
    let holder = Holder { before: 3, blob: pattern(300), after: 4 };
    let legacy = LegacyHolder { before: 3, blob: pattern(300).into(), after: 4 };
    for whole in [codec::to_bytes(&holder), codec::to_bytes(&legacy)] {
        assert_eq!(codec::from_bytes::<Holder>(&whole).unwrap(), holder);
        for cut in 0..whole.len() {
            assert!(codec::from_bytes::<Holder>(&whole[..cut]).is_err(), "cut at {cut}");
        }
    }
}

#[test]
fn byte_vec_never_reserves_from_an_unchecked_length() {
    // A raw run declaring more bytes than the input holds.
    let mut lying = vec![0x0B];
    codec::varint::write_u64(&mut lying, u64::MAX / 2);
    lying.extend_from_slice(b"short");
    assert!(matches!(
        codec::from_bytes::<Vec<u8>>(&lying),
        Err(codec::Error::LengthOverrun { .. })
    ));

    // A legacy sequence whose count lies: rejected before any element is
    // read or any reservation made, not an abort on a huge allocation.
    let mut lying = vec![0x0E];
    codec::varint::write_u64(&mut lying, usize::MAX as u64);
    assert!(matches!(
        codec::from_bytes::<Vec<u8>>(&lying),
        Err(codec::Error::LengthOverrun { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn binary_roundtrip_tree(value in arb_tree()) {
        let bytes = codec::to_bytes(&value);
        let back: TreeValue = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, value);
    }

    #[test]
    fn binary_roundtrip_scalars(i in any::<i64>(), u in any::<u64>(), s in ".*", b in vec(any::<u8>(), 0..512)) {
        let v = (i, u, s.clone(), b.clone());
        let bytes = codec::to_bytes(&v);
        let back: (i64, u64, String, Vec<u8>) = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn binary_never_panics_on_garbage(data in vec(any::<u8>(), 0..256)) {
        // Corrupt input must produce Err, never panic or huge allocation.
        let _ = codec::from_bytes::<TreeValue>(&data);
        let _ = codec::from_bytes::<Vec<String>>(&data);
        let _ = codec::from_bytes::<u64>(&data);
        let _ = codec::from_bytes::<Vec<u8>>(&data);
        let _ = codec::from_bytes::<Holder>(&data);
    }

    #[test]
    fn byte_vec_roundtrip(blob in vec(any::<u8>(), 0..4096), before in any::<u8>(), after in any::<u8>()) {
        let holder = Holder { before, blob, after };
        let bytes = codec::to_bytes(&holder);
        prop_assert_eq!(codec::from_bytes::<Holder>(&bytes).unwrap(), holder);
    }

    #[test]
    fn framed_value_equals_frame_of_encoding(blob in vec(any::<u8>(), 0..4096), hint in 0..8192usize) {
        let holder = Holder { before: 1, blob, after: 2 };
        let framed = codec::to_framed_bytes(&holder, hint);
        prop_assert_eq!(&framed, &codec::write_frame(&codec::to_bytes(&holder)));
        let payload = codec::into_payload(framed).unwrap();
        prop_assert_eq!(codec::from_bytes::<Holder>(&payload).unwrap(), holder);
    }

    #[test]
    fn frame_roundtrip(payload in vec(any::<u8>(), 0..2048)) {
        let framed = codec::write_frame(&payload);
        prop_assert_eq!(codec::read_frame(&framed).unwrap(), payload.as_slice());
    }

    #[test]
    fn frame_detects_any_single_byte_corruption(payload in vec(any::<u8>(), 1..256), idx in any::<prop::sample::Index>(), flip in 1..=255u8) {
        let mut framed = codec::write_frame(&payload);
        let i = idx.index(framed.len());
        framed[i] ^= flip;
        prop_assert!(codec::read_frame(&framed).is_err());
    }

    #[test]
    fn meta_roundtrip(entries in vec(("[a-zA-Z0-9_.-]{1,12}", "[a-zA-Z0-9_.-]{1,16}", "\\PC*"), 0..24)) {
        let mut doc = codec::MetaDoc::new();
        for (section, key, value) in &entries {
            doc.append(section, key, value.clone());
        }
        let text = doc.render();
        let back = codec::MetaDoc::parse(&text).unwrap();
        for (section, key, value) in &entries {
            prop_assert!(back.get_all(section, key).contains(&value.trim()) || back.get_all(section, key).iter().any(|v| v == value));
        }
    }

    #[test]
    fn meta_parse_never_panics(text in "\\PC*") {
        let _ = codec::MetaDoc::parse(&text);
    }

    #[test]
    fn varint_roundtrip(v in any::<u64>(), s in any::<i64>()) {
        let mut buf = Vec::new();
        codec::varint::write_u64(&mut buf, v);
        codec::varint::write_i64(&mut buf, s);
        let mut input = buf.as_slice();
        prop_assert_eq!(codec::varint::read_u64(&mut input).unwrap(), v);
        prop_assert_eq!(codec::varint::read_i64(&mut input).unwrap(), s);
        prop_assert!(input.is_empty());
    }
}
