//! Property tests for the page checksum trailer: arbitrary page contents
//! round-trip through flush → evict → fault-in untouched, and *every*
//! single-bit flip of the on-disk image — payload or trailer — fails
//! verification. The second property is what the whole disk-fault plane
//! leans on: a corruption the checksum misses is one the scrubber never
//! repairs. It is checked twice: sampled through the file, and exhaustively
//! on the function, whose value for one page is pinned so that it cannot
//! drift unnoticed (a page written by one build must verify under the next).

use harbor_common::config::{PAGE_PAYLOAD, PAGE_SIZE};
use harbor_common::{DiskProfile, Metrics};
use harbor_storage::{page_crc, slots_per_page, Page, TableFile};
use proptest::prelude::*;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

fn temp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("harbor-storage-crc-prop");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

/// A page of `width`-byte tuples with the given slot payloads inserted.
fn build_page(width: usize, tuples: &[Vec<u8>]) -> Page {
    let mut page = Page::init(width);
    for t in tuples {
        let mut bytes = vec![0u8; width];
        let n = t.len().min(width);
        bytes[..n].copy_from_slice(&t[..n]);
        page.insert(&bytes).unwrap();
    }
    page
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flush a page of arbitrary-width tuples, drop every in-memory copy
    /// (reopen the file), and fault it back in: the payload comes back
    /// byte-identical and the checksum verifies.
    #[test]
    fn crc_round_trips_for_arbitrary_tuple_widths(
        width in 24usize..=200,
        seed_tuples in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..32),
            1..40,
        ),
        page_no in 0u32..8,
    ) {
        let cap = slots_per_page(width);
        let tuples: Vec<Vec<u8>> = seed_tuples.into_iter().take(cap).collect();
        let page = build_page(width, &tuples);
        let path = temp(&format!("roundtrip-{width}-{page_no}"));
        {
            let f = TableFile::create(&path, DiskProfile::fast(), Metrics::new()).unwrap();
            f.write_page(page_no, &mut page.as_bytes().clone()).unwrap();
            f.sync().unwrap();
        }
        // Evict + fault-in: a fresh handle has no cached state.
        let f = TableFile::open(&path, DiskProfile::fast(), Metrics::new()).unwrap();
        let bytes = f.read_page(page_no).unwrap();
        prop_assert_eq!(&bytes[..PAGE_PAYLOAD], &page.as_bytes()[..PAGE_PAYLOAD]);
        let reread = Page::from_bytes(bytes, width).unwrap();
        prop_assert_eq!(reread.used(), tuples.len());
        std::fs::remove_file(&path).unwrap();
    }

    /// Every single-bit flip of the stored image is detected: a payload
    /// flip changes the computed checksum (the flipped word's lane absorbs
    /// it through a bijection, and no other lane sees it), and a trailer
    /// flip changes the stored one.
    #[test]
    fn every_single_bit_flip_is_detected(
        width in 24usize..=200,
        marker in 1u8..=255,
        bit in 0usize..(PAGE_SIZE * 8),
    ) {
        let tuples = vec![vec![marker; 16]; 3];
        let page = build_page(width, &tuples);
        let path = temp(&format!("bitflip-{width}-{bit}"));
        let f = TableFile::create(&path, DiskProfile::fast(), Metrics::new()).unwrap();
        f.write_page(0, &mut page.as_bytes().clone()).unwrap();
        f.sync().unwrap();
        {
            let mut raw = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            raw.seek(SeekFrom::Start((bit / 8) as u64)).unwrap();
            let mut b = [0u8; 1];
            raw.read_exact(&mut b).unwrap();
            b[0] ^= 1 << (bit % 8);
            raw.seek(SeekFrom::Start((bit / 8) as u64)).unwrap();
            raw.write_all(&b).unwrap();
            raw.sync_all().unwrap();
        }
        let err = f.read_page(0).unwrap_err();
        prop_assert!(err.is_corrupt(), "bit {} flip not detected: {}", bit, err);
        std::fs::remove_file(&path).unwrap();
    }
}

/// A page with something in every part of it: header, bitmap, slots of
/// distinct content, free space.
fn sample_page() -> Page {
    let tuples: Vec<Vec<u8>> = (0..30u8)
        .map(|i| vec![i.wrapping_mul(37) | 1; 40])
        .collect();
    build_page(72, &tuples)
}

/// The lane argument, bit by bit: no flip anywhere in the payload leaves the
/// checksum as it was (trailer flips change the stored value instead).
#[test]
fn every_single_bit_flip_changes_the_checksum() {
    let mut image = *sample_page().as_bytes();
    let clean = page_crc(&image);
    for bit in 0..PAGE_PAYLOAD * 8 {
        image[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(page_crc(&image), clean, "flip of bit {bit} goes unseen");
        image[bit / 8] ^= 1 << (bit % 8);
    }
    // The trailer is not part of what it covers.
    image[PAGE_PAYLOAD] ^= 0xff;
    assert_eq!(page_crc(&image), clean);
}

/// Two values, computed by hand from the definition and written down: the
/// definition is an on-disk format. (Lanes: 8 FNV-1a states over little-endian words dealt round
/// robin, folded by XOR with lane `l` rotated left `4 l` bits.)
#[test]
fn checksum_value_is_pinned() {
    assert_eq!(page_crc(&[0u8; PAGE_SIZE]), 0xc3bc_ec16);
    let image: [u8; PAGE_SIZE] = std::array::from_fn(|i| (i * 31 + 7) as u8);
    assert_eq!(page_crc(&image), 0xe964_e26f);
}

/// A torn write's final sector — the trailer's — reads back as zeroes
/// (`TableFile::write_page`'s model): the page must fail verification, which
/// it does because no written page's checksum is the zero that is left.
#[test]
fn torn_final_sector_fails_verification() {
    let page = sample_page();
    assert_ne!(page_crc(page.as_bytes()), 0);
    let path = temp("torn-sector");
    let f = TableFile::create(&path, DiskProfile::fast(), Metrics::new()).unwrap();
    f.write_page(0, &mut page.as_bytes().clone()).unwrap();
    f.read_page(0).unwrap();
    let mut raw = std::fs::read(&path).unwrap();
    raw[PAGE_SIZE - 512..].fill(0);
    std::fs::write(&path, &raw).unwrap();
    assert!(f.read_page(0).unwrap_err().is_corrupt());
    std::fs::remove_file(&path).unwrap();
}
