//! A `Vec<f64>` is written and read as one slab of `F64` records. These
//! tests pin the slab to the bytes the per-item sequence path writes
//! (a `VecDeque<f64>` still takes that path), check that the per-item
//! decode stays the fallback for other numeric tags, and that a short or
//! lying input is a typed error that allocates nothing from its count.

// The one unsafe item is the counting allocator below, which only
// forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

use codec::wire::{put_header, tag, Wire};
use proptest::collection::vec;
use proptest::prelude::*;

/// Records the largest allocation the current thread asks for, so a test
/// can see that a decode never reserved from a count it had not checked.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// The largest single allocation `f` makes on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// What the per-item sequence path writes for `values`.
fn per_item_bytes(values: &[f64]) -> Vec<u8> {
    codec::to_bytes(&values.iter().copied().collect::<VecDeque<f64>>())
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every class of value whose bits a float conversion could disturb.
fn awkward() -> Vec<f64> {
    vec![
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN
        f64::from_bits(0xFFF8_DEAD_BEEF_0001), // quiet NaN with a payload
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::from_bits(1), // smallest subnormal
        -f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest negative subnormal
        f64::MAX,
        f64::MIN,
        1.0,
        -2.5e-300,
    ]
}

/// `len` values cycling through the awkward ones and ordinary numbers.
fn values(len: usize) -> Vec<f64> {
    let awkward = awkward();
    (0..len)
        .map(|i| if i % 3 == 0 { awkward[i / 3 % awkward.len()] } else { (i as f64).sin() * 1e3 })
        .collect()
}

#[test]
fn slab_bytes_equal_the_per_item_bytes() {
    for len in [0, 1, 2, 100_000] {
        let values = values(len);
        let slab = codec::to_bytes(&values);
        assert_eq!(slab, per_item_bytes(&values), "len {len}");
        let back: Vec<f64> = codec::from_bytes(&slab).unwrap();
        assert_eq!(bits(&back), bits(&values), "len {len}");
        let mut per_item: VecDeque<f64> = codec::from_bytes(&slab).unwrap();
        assert_eq!(bits(per_item.make_contiguous()), bits(&values), "len {len}");
    }
    let awkward = awkward();
    assert_eq!(codec::to_bytes(&awkward), per_item_bytes(&awkward));
}

#[test]
fn another_numeric_tag_mid_sequence_decodes_as_the_per_item_path_reads_it() {
    for odd in [
        codec::to_bytes(&1.5f32),
        codec::to_bytes(&-7i64),
        codec::to_bytes(&u64::MAX),
        codec::to_bytes(&f32::NAN),
    ] {
        let mut bytes = Vec::new();
        put_header(&mut bytes, tag::SEQ, 5);
        for v in [1.0f64, -0.0] {
            v.encode_into(&mut bytes);
        }
        bytes.extend_from_slice(&odd);
        for v in [f64::INFINITY, 3.25] {
            v.encode_into(&mut bytes);
        }
        let slab: Vec<f64> = codec::from_bytes(&bytes).unwrap();
        let per_item: VecDeque<f64> = codec::from_bytes(&bytes).unwrap();
        assert_eq!(slab.len(), 5, "tag {:#04x}", odd[0]);
        assert_eq!(bits(&slab), bits(&Vec::from(per_item)), "tag {:#04x}", odd[0]);
    }
}

#[test]
fn a_non_numeric_element_is_the_per_item_error() {
    let mut bytes = Vec::new();
    put_header(&mut bytes, tag::SEQ, 3);
    1.0f64.encode_into(&mut bytes);
    String::from("x").encode_into(&mut bytes);
    2.0f64.encode_into(&mut bytes);
    let slab = codec::from_bytes::<Vec<f64>>(&bytes).unwrap_err();
    let per_item = codec::from_bytes::<VecDeque<f64>>(&bytes).unwrap_err();
    assert_eq!(slab, per_item);
    assert!(matches!(slab, codec::Error::WrongTag { expected: "a float", .. }), "{slab:?}");
}

#[test]
fn every_truncation_is_a_typed_error() {
    #[derive(Debug, PartialEq)]
    struct Cells {
        iter: u64,
        cells: Vec<f64>,
        residual: f64,
    }
    codec::wire_struct!(Cells { iter, cells, residual });
    let whole = codec::to_bytes(&Cells { iter: 3, cells: values(7), residual: 0.5 });
    for cut in 0..whole.len() {
        match codec::from_bytes::<Cells>(&whole[..cut]) {
            Err(codec::Error::UnexpectedEof { .. } | codec::Error::LengthOverrun { .. }) => {}
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
    let slab = codec::to_bytes(&values(7));
    for cut in 0..slab.len() {
        match codec::from_bytes::<Vec<f64>>(&slab[..cut]) {
            Err(codec::Error::UnexpectedEof { .. } | codec::Error::LengthOverrun { .. }) => {}
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
}

#[test]
fn a_lying_count_allocates_nothing_from_it() {
    // A count past the input's end is refused at the header.
    let mut lying = Vec::new();
    put_header(&mut lying, tag::SEQ, 1 << 40);
    lying.extend_from_slice(&codec::to_bytes(&1.0f64));
    let (err, largest) = largest_allocation(|| codec::from_bytes::<Vec<f64>>(&lying));
    assert!(matches!(err, Err(codec::Error::LengthOverrun { .. })), "{err:?}");
    assert!(largest < 1024, "allocated {largest} bytes");

    // A count the input's bytes cover, but not its records: one record,
    // then garbage. The fallback reserves a bounded prefix, never the
    // 8 MiB that 1 Mi values would take.
    let count = 1 << 20;
    let mut lying = Vec::new();
    put_header(&mut lying, tag::SEQ, count);
    1.0f64.encode_into(&mut lying);
    lying.resize(lying.len() + count - 9, 0xFF);
    let (err, largest) = largest_allocation(|| codec::from_bytes::<Vec<f64>>(&lying));
    assert!(matches!(err, Err(codec::Error::BadTag { tag: 0xFF, .. })), "{err:?}");
    assert!(largest < count, "allocated {largest} bytes for {count} declared records");
}

#[derive(Debug, Clone, PartialEq)]
struct Field {
    iter: u64,
    cells: Vec<f64>,
    residual: f64,
}
codec::wire_struct!(Field { iter, cells, residual });

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn f64_vec_roundtrip(values in vec(any::<f64>(), 0..2048)) {
        let bytes = codec::to_bytes(&values);
        prop_assert_eq!(&bytes, &per_item_bytes(&values));
        let back: Vec<f64> = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(bits(&back), bits(&values));
    }

    #[test]
    fn struct_holding_an_f64_vec_roundtrip(iter in any::<u64>(), cells in vec(any::<f64>(), 0..2048), residual in any::<f64>()) {
        let field = Field { iter, cells, residual };
        let back: Field = codec::from_bytes(&codec::to_bytes(&field)).unwrap();
        prop_assert_eq!(back.iter, field.iter);
        prop_assert_eq!(bits(&back.cells), bits(&field.cells));
        prop_assert_eq!(back.residual.to_bits(), field.residual.to_bits());
    }

    #[test]
    fn f64_vec_never_panics_on_garbage(data in vec(any::<u8>(), 0..256)) {
        let _ = codec::from_bytes::<Vec<f64>>(&data);
        let _ = codec::from_bytes::<Field>(&data);
    }
}
