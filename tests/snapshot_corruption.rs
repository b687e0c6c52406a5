//! Snapshot corruption robustness: a damaged snapshot file must surface
//! as a typed [`archval::Error::Snapshot`] — never a panic, an abort, or
//! a silent mis-load.
//!
//! Three corruption families:
//!
//! 1. **truncation** at every sampled prefix length;
//! 2. **bit flips** anywhere in the file (the FNV-1a-64 container
//!    checksum must catch them);
//! 3. **re-checksummed corruption** — payload bytes damaged and the
//!    trailer recomputed, so parsing reaches the chunk decoders. This is
//!    the family that exercises structural validation, including the
//!    count-versus-payload check that stops a corrupt header from
//!    requesting a multi-gigabyte allocation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use archval::fsm::{
    enumerate, load_enum_result, save_enum_result, EnumConfig, Model, ModelBuilder,
};

fn counter_model() -> Model {
    let mut b = ModelBuilder::new("corruption_counter");
    let en = b.choice("enable", 2);
    let count = b.state_var("count", 8, 0);
    let cur = b.var_expr(count);
    let bumped = b.add(cur, b.constant(1));
    let wrapped = b.modulo(bumped, b.constant(8));
    let next = b.ternary(b.choice_expr(en), wrapped, cur);
    b.set_next(count, next);
    b.build().unwrap()
}

/// FNV-1a-64, matching the snapshot container's documented checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Replaces the trailing checksum so the damaged body parses as framed.
fn rechecksum(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let sum = fnv1a64(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// A temp file path no other call — on this or another test thread —
/// shares: the tests of this binary run in parallel, and a path named by
/// process id and tag alone let one test delete or truncate another's file.
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("archval_corrupt_{tag}_{}_{n}.avgs", std::process::id()))
}

/// Writes `bytes` to a fresh temp file and attempts to load it; returns
/// `Err(())` on panic, else the typed load result mapped to `Ok`/`Err`.
fn try_load(model: &Model, bytes: &[u8], tag: &str) -> Result<Result<(), String>, ()> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        load_enum_result(&path, model).map(|_| ()).map_err(|e| e.to_string())
    }));
    let _ = std::fs::remove_file(&path);
    outcome.map_err(|_| ())
}

fn pristine(model: &Model) -> Vec<u8> {
    let enumd = enumerate(model, &EnumConfig::default()).unwrap();
    let path = temp_path("base");
    save_enum_result(&path, model, &enumd).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

#[test]
fn every_truncation_is_a_typed_error() {
    let model = counter_model();
    let bytes = pristine(&model);
    assert!(try_load(&model, &bytes, "full").unwrap().is_ok(), "pristine file must load");

    let step = (bytes.len() / 97).max(1);
    for len in (0..bytes.len()).step_by(step) {
        let result = try_load(&model, &bytes[..len], "trunc")
            .unwrap_or_else(|()| panic!("loader panicked on truncation to {len} bytes"));
        assert!(result.is_err(), "truncation to {len} of {} bytes loaded silently", bytes.len());
    }
}

#[test]
fn every_bit_flip_is_caught_by_the_checksum() {
    let model = counter_model();
    let bytes = pristine(&model);
    let step = (bytes.len() / 211).max(1);
    for pos in (0..bytes.len()).step_by(step) {
        for mask in [0x01u8, 0x80] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= mask;
            let result = try_load(&model, &damaged, "flip")
                .unwrap_or_else(|()| panic!("loader panicked on bit flip at byte {pos}"));
            assert!(result.is_err(), "bit flip at byte {pos} (mask {mask:#04x}) loaded silently");
        }
    }
}

#[test]
fn rechecksummed_corruption_never_panics() {
    let model = counter_model();
    let bytes = pristine(&model);
    // skip magic/version (first 8) and the checksum trailer (last 8)
    let step = ((bytes.len() - 16) / 151).max(1);
    for pos in (8..bytes.len() - 8).step_by(step) {
        for mask in [0x01u8, 0xFF] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= mask;
            let damaged = rechecksum(damaged);
            // A self-consistent file may decode (e.g. a flipped edge
            // label is just a different valid graph); what it must never
            // do is panic or abort.
            let _ = try_load(&model, &damaged, "resum")
                .unwrap_or_else(|()| panic!("loader panicked on re-checksummed flip at {pos}"));
        }
    }
}

#[test]
fn huge_count_header_fails_without_allocating() {
    let model = counter_model();
    let bytes = pristine(&model);
    // find the CSR graph chunk and blow up its state/edge counts to the
    // u32 ceiling, then re-checksum so parsing reaches the decoder
    let tag_at =
        bytes.windows(4).position(|w| w == b"CSRG").expect("snapshot contains a CSRG chunk");
    let payload_at = tag_at + 4 + 8; // tag + u64 length
    let mut damaged = bytes.clone();
    damaged[payload_at..payload_at + 8].copy_from_slice(&0xFFFF_FFFFu64.to_le_bytes());
    damaged[payload_at + 8..payload_at + 16].copy_from_slice(&0xFFFF_FFFFu64.to_le_bytes());
    let damaged = rechecksum(damaged);
    let result = try_load(&model, &damaged, "huge")
        .expect("loader must not panic on a 4-billion-state header");
    let err = result.expect_err("a 4-billion-state header over a tiny payload must not load");
    assert!(!err.is_empty());
}

#[test]
fn corruption_surfaces_as_core_snapshot_error() {
    let model = counter_model();
    let bytes = pristine(&model);
    let truncated = &bytes[..bytes.len() / 2];
    let path = temp_path("core");
    std::fs::write(&path, truncated).unwrap();
    let err = load_enum_result(&path, &model).map(|_| ()).unwrap_err();
    std::fs::remove_file(&path).unwrap();
    // the top-level pipeline wraps it as Error::Snapshot
    let top: archval::Error = err.into();
    assert!(matches!(top, archval::Error::Snapshot(_)), "{top}");
}
