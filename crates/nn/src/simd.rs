//! Runtime-dispatched SIMD micro-kernels for the dense matrix layer.
//!
//! Every innermost loop of the blocked matmul family lives here, in two
//! implementations per kernel:
//!
//! * a **scalar** reference — the exact loops the register-tiled kernels
//!   in [`matrix`](crate::Matrix) shipped with, preserved verbatim so the
//!   fallback is bit-identical to the historical blocked reference;
//! * an **AVX2** variant written with `std::arch` intrinsics.
//!
//! Which one runs is decided once per process by
//! [`active_kernel`]: the first call probes the host CPU
//! (`is_x86_feature_detected!`) and caches the answer in an atomic, so
//! the hot path pays one relaxed load per kernel entry, not a cpuid.
//! Setting `ATLAS_FORCE_SCALAR=1` in the environment pins the scalar
//! path regardless of hardware — CI uses this to run the full test
//! suite over the fallback on modern runners.
//!
//! # The f64 bit-parity guarantee
//!
//! The repo's batching story rests on kernels being bit-identical to the
//! naive k-ascending reference, so SIMD must not change a single ULP.
//! The `f64` AVX2 kernels therefore use **separate multiply and add**
//! (`_mm256_mul_pd` + `_mm256_add_pd`), never FMA: each of the four
//! lanes performs exactly the `acc = acc + a*b` (two roundings) sequence
//! the scalar loop performs for that element, in the same k order, so
//! vector and scalar results are bit-identical — proptests in
//! `matrix.rs` pin this across tile-edge shapes.
//!
//! # One precision
//!
//! Every kernel here is f64 and none uses FMA. The serving layer's f32
//! mode is a storage format only: the model layer narrows finished
//! embedding rows for the cache, so no f32 arithmetic reaches these
//! kernels.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which micro-kernel family the dense matrix layer dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum KernelLevel {
    /// Portable scalar loops — bit-identical to the historical blocked
    /// reference on every platform.
    Scalar = 0,
    /// Hand-written AVX2 intrinsics (separate mul+add, never FMA, for
    /// bit parity with the scalar loops).
    Avx2 = 1,
}

const LEVEL_UNSET: u8 = u8::MAX;

/// The level every kernel entry point dispatches on, decided lazily on
/// first use. `LEVEL_UNSET` until then.
static ACTIVE_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn level_from_u8(v: u8) -> KernelLevel {
    match v {
        1 => KernelLevel::Avx2,
        _ => KernelLevel::Scalar,
    }
}

/// The best kernel level this host supports, ignoring any override.
pub fn detected_kernel() -> KernelLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelLevel::Avx2;
        }
    }
    KernelLevel::Scalar
}

/// `ATLAS_FORCE_SCALAR` pins the scalar fallback when set to anything
/// other than `0`, the empty string, or `false`.
fn env_forces_scalar() -> bool {
    match std::env::var("ATLAS_FORCE_SCALAR") {
        Ok(v) => !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")),
        Err(_) => false,
    }
}

/// The kernel level in effect for this process.
///
/// First call: probe the CPU, honor `ATLAS_FORCE_SCALAR`, cache the
/// result. Later calls: one relaxed atomic load.
#[inline]
pub fn active_kernel() -> KernelLevel {
    match ACTIVE_LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let level = if env_forces_scalar() {
                KernelLevel::Scalar
            } else {
                detected_kernel()
            };
            ACTIVE_LEVEL.store(level as u8, Ordering::Relaxed);
            level
        }
        v => level_from_u8(v),
    }
}

/// Override the dispatched kernel level (e.g. a benchmark timing the
/// scalar fallback against the vector path in one process). Returns the
/// previously active level; rejects levels the host cannot run.
///
/// Not synchronized against concurrently *running* kernels — call it
/// between computations, not during them.
pub fn set_kernel(level: KernelLevel) -> Result<KernelLevel, String> {
    if level > detected_kernel() {
        return Err(format!(
            "kernel level {level:?} not supported on this host (detected {:?})",
            detected_kernel()
        ));
    }
    let prev = active_kernel();
    ACTIVE_LEVEL.store(level as u8, Ordering::Relaxed);
    Ok(prev)
}

/// Human-readable name of a kernel level, for bench reports and logs.
pub fn kernel_label(level: KernelLevel) -> &'static str {
    match level {
        KernelLevel::Scalar => "scalar",
        KernelLevel::Avx2 => "avx2",
    }
}

/// A summary of the host's relevant ISA extensions (independent of any
/// override), so a bench report can attribute throughput to runner
/// class: e.g. `"avx512f+avx2+fma"`, `"avx2"`, or `"baseline"`.
pub fn isa_label() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let fma = std::arch::is_x86_feature_detected!("fma");
        match (avx512, avx2, fma) {
            (true, _, true) => "avx512f+avx2+fma",
            (true, _, false) => "avx512f+avx2",
            (false, true, true) => "avx2+fma",
            (false, true, false) => "avx2",
            _ => "baseline",
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "baseline"
    }
}

// ---------------------------------------------------------------------
// f64 kernels (bit-parity family)
// ---------------------------------------------------------------------

/// 4×8 register tile: `acc[r][c] += Σ_k a[r][k] · b[k·ldb + j + c]`.
///
/// All four `a` rows must share one length `kd`, and `b` must hold at
/// least `kd` rows of `ldb ≥ j+8` columns.
#[inline]
pub(crate) fn tile4x8_f64(
    level: KernelLevel,
    a: [&[f64]; 4],
    b: &[f64],
    ldb: usize,
    j: usize,
    acc: &mut [[f64; 8]; 4],
) {
    #[cfg(target_arch = "x86_64")]
    if level == KernelLevel::Avx2 {
        // SAFETY: shape preconditions checked by the debug asserts in the
        // kernel and guaranteed by the blocked drivers in `matrix.rs`;
        // AVX2 availability is guaranteed by the dispatch contract
        // (`level == Avx2` only ever flows from `detected_kernel`).
        unsafe { tile4x8_f64_avx2(a, b, ldb, j, acc) };
        return;
    }
    let _ = level;
    tile4x8_f64_scalar(a, b, ldb, j, acc);
}

fn tile4x8_f64_scalar(a: [&[f64]; 4], b: &[f64], ldb: usize, j: usize, acc: &mut [[f64; 8]; 4]) {
    let [a0, a1, a2, a3] = a;
    for ((((&a0k, &a1k), &a2k), &a3k), brow) in
        a0.iter().zip(a1).zip(a2).zip(a3).zip(b.chunks_exact(ldb))
    {
        let b: &[f64; 8] = brow[j..j + 8].try_into().expect("tile width");
        for c in 0..8 {
            acc[0][c] += a0k * b[c];
            acc[1][c] += a1k * b[c];
            acc[2][c] += a2k * b[c];
            acc[3][c] += a3k * b[c];
        }
    }
}

/// # Safety
///
/// Requires AVX2. The four `a` rows must share one length `kd`, and
/// `b.len() ≥ (kd-1)·ldb + j + 8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile4x8_f64_avx2(
    a: [&[f64]; 4],
    b: &[f64],
    ldb: usize,
    j: usize,
    acc: &mut [[f64; 8]; 4],
) {
    use std::arch::x86_64::*;
    let kd = a[0].len();
    debug_assert!(a.iter().all(|r| r.len() == kd));
    debug_assert!(kd == 0 || b.len() >= (kd - 1) * ldb + j + 8);
    let mut c00 = _mm256_loadu_pd(acc[0].as_ptr());
    let mut c01 = _mm256_loadu_pd(acc[0].as_ptr().add(4));
    let mut c10 = _mm256_loadu_pd(acc[1].as_ptr());
    let mut c11 = _mm256_loadu_pd(acc[1].as_ptr().add(4));
    let mut c20 = _mm256_loadu_pd(acc[2].as_ptr());
    let mut c21 = _mm256_loadu_pd(acc[2].as_ptr().add(4));
    let mut c30 = _mm256_loadu_pd(acc[3].as_ptr());
    let mut c31 = _mm256_loadu_pd(acc[3].as_ptr().add(4));
    let bp = b.as_ptr();
    for k in 0..kd {
        let brow = bp.add(k * ldb + j);
        let b0 = _mm256_loadu_pd(brow);
        let b1 = _mm256_loadu_pd(brow.add(4));
        // mul+add, not FMA: two roundings per element, exactly like the
        // scalar loop, so results are bit-identical.
        let a0 = _mm256_set1_pd(*a[0].get_unchecked(k));
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(a0, b0));
        c01 = _mm256_add_pd(c01, _mm256_mul_pd(a0, b1));
        let a1 = _mm256_set1_pd(*a[1].get_unchecked(k));
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(a1, b0));
        c11 = _mm256_add_pd(c11, _mm256_mul_pd(a1, b1));
        let a2 = _mm256_set1_pd(*a[2].get_unchecked(k));
        c20 = _mm256_add_pd(c20, _mm256_mul_pd(a2, b0));
        c21 = _mm256_add_pd(c21, _mm256_mul_pd(a2, b1));
        let a3 = _mm256_set1_pd(*a[3].get_unchecked(k));
        c30 = _mm256_add_pd(c30, _mm256_mul_pd(a3, b0));
        c31 = _mm256_add_pd(c31, _mm256_mul_pd(a3, b1));
    }
    _mm256_storeu_pd(acc[0].as_mut_ptr(), c00);
    _mm256_storeu_pd(acc[0].as_mut_ptr().add(4), c01);
    _mm256_storeu_pd(acc[1].as_mut_ptr(), c10);
    _mm256_storeu_pd(acc[1].as_mut_ptr().add(4), c11);
    _mm256_storeu_pd(acc[2].as_mut_ptr(), c20);
    _mm256_storeu_pd(acc[2].as_mut_ptr().add(4), c21);
    _mm256_storeu_pd(acc[3].as_mut_ptr(), c30);
    _mm256_storeu_pd(acc[3].as_mut_ptr().add(4), c31);
}

/// 4-row × 24-column full-row tile (the serving hidden width):
/// `acc[r][c] += Σ_k a[r][k] · b[k·24 + c]`.
#[inline]
pub(crate) fn tile4x24_f64(
    level: KernelLevel,
    a: [&[f64]; 4],
    b: &[f64],
    acc: &mut [[f64; 24]; 4],
) {
    #[cfg(target_arch = "x86_64")]
    if level == KernelLevel::Avx2 {
        // SAFETY: as for `tile4x8_f64` — shapes from the blocked driver,
        // AVX2 from the dispatch contract.
        unsafe { tile4x24_f64_avx2(a, b, acc) };
        return;
    }
    let _ = level;
    tile4x24_f64_scalar(a, b, acc);
}

fn tile4x24_f64_scalar(a: [&[f64]; 4], b: &[f64], acc: &mut [[f64; 24]; 4]) {
    let [a0, a1, a2, a3] = a;
    for ((((&a0k, &a1k), &a2k), &a3k), brow) in
        a0.iter().zip(a1).zip(a2).zip(a3).zip(b.chunks_exact(24))
    {
        let b: &[f64; 24] = brow.try_into().expect("row width");
        for c in 0..24 {
            acc[0][c] += a0k * b[c];
            acc[1][c] += a1k * b[c];
            acc[2][c] += a2k * b[c];
            acc[3][c] += a3k * b[c];
        }
    }
}

/// # Safety
///
/// Requires AVX2. The four `a` rows must share one length `kd`, and
/// `b.len() ≥ kd·24`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile4x24_f64_avx2(a: [&[f64]; 4], b: &[f64], acc: &mut [[f64; 24]; 4]) {
    use std::arch::x86_64::*;
    let kd = a[0].len();
    debug_assert!(a.iter().all(|r| r.len() == kd));
    debug_assert!(b.len() >= kd * 24);
    let bp = b.as_ptr();
    // Two column halves of 12: per half, 4 rows × 3 ymm accumulators
    // (12) + 3 b registers + 1 broadcast = a full 16-register file.
    // Column halves are independent per element, so splitting them never
    // reorders any element's k-ascending mul+add chain.
    for half in 0..2usize {
        let joff = half * 12;
        let mut c: [[__m256d; 3]; 4] = [[_mm256_setzero_pd(); 3]; 4];
        for (r, cr) in c.iter_mut().enumerate() {
            for (g, creg) in cr.iter_mut().enumerate() {
                *creg = _mm256_loadu_pd(acc[r].as_ptr().add(joff + g * 4));
            }
        }
        for k in 0..kd {
            let brow = bp.add(k * 24 + joff);
            let b0 = _mm256_loadu_pd(brow);
            let b1 = _mm256_loadu_pd(brow.add(4));
            let b2 = _mm256_loadu_pd(brow.add(8));
            for (r, cr) in c.iter_mut().enumerate() {
                // mul+add, not FMA: bit parity with the scalar loop.
                let av = _mm256_set1_pd(*a[r].get_unchecked(k));
                cr[0] = _mm256_add_pd(cr[0], _mm256_mul_pd(av, b0));
                cr[1] = _mm256_add_pd(cr[1], _mm256_mul_pd(av, b1));
                cr[2] = _mm256_add_pd(cr[2], _mm256_mul_pd(av, b2));
            }
        }
        for (r, cr) in c.iter().enumerate() {
            for (g, creg) in cr.iter().enumerate() {
                _mm256_storeu_pd(acc[r].as_mut_ptr().add(joff + g * 4), *creg);
            }
        }
    }
}

/// Shared-row 4×8 tile of the `selfᵀ × other` kernel:
/// `acc[r][c] += Σ_row a[row·ac + i + r] · b[row·bc + j + c]`
/// over `rows` shared rows.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn tn_tile4x8_f64(
    level: KernelLevel,
    a: &[f64],
    b: &[f64],
    ac: usize,
    bc: usize,
    i: usize,
    j: usize,
    acc: &mut [[f64; 8]; 4],
) {
    #[cfg(target_arch = "x86_64")]
    if level == KernelLevel::Avx2 {
        // SAFETY: shape preconditions from the blocked driver in
        // `matrix.rs`; AVX2 from the dispatch contract.
        unsafe { tn_tile4x8_f64_avx2(a, b, ac, bc, i, j, acc) };
        return;
    }
    let _ = level;
    tn_tile4x8_f64_scalar(a, b, ac, bc, i, j, acc);
}

#[allow(clippy::too_many_arguments)]
fn tn_tile4x8_f64_scalar(
    a: &[f64],
    b: &[f64],
    ac: usize,
    bc: usize,
    i: usize,
    j: usize,
    acc: &mut [[f64; 8]; 4],
) {
    for (arow, brow) in a.chunks_exact(ac).zip(b.chunks_exact(bc)) {
        let a: &[f64; 4] = arow[i..i + 4].try_into().expect("tile height");
        let b: &[f64; 8] = brow[j..j + 8].try_into().expect("tile width");
        for c in 0..8 {
            acc[0][c] += a[0] * b[c];
            acc[1][c] += a[1] * b[c];
            acc[2][c] += a[2] * b[c];
            acc[3][c] += a[3] * b[c];
        }
    }
}

/// # Safety
///
/// Requires AVX2. `a`/`b` must hold the same whole number of rows of
/// `ac` / `bc` columns, with `i+4 ≤ ac` and `j+8 ≤ bc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn tn_tile4x8_f64_avx2(
    a: &[f64],
    b: &[f64],
    ac: usize,
    bc: usize,
    i: usize,
    j: usize,
    acc: &mut [[f64; 8]; 4],
) {
    use std::arch::x86_64::*;
    let rows = a.len() / ac.max(1);
    debug_assert_eq!(a.len(), rows * ac);
    debug_assert!(b.len() >= rows * bc);
    debug_assert!(i + 4 <= ac && j + 8 <= bc);
    let mut c00 = _mm256_loadu_pd(acc[0].as_ptr());
    let mut c01 = _mm256_loadu_pd(acc[0].as_ptr().add(4));
    let mut c10 = _mm256_loadu_pd(acc[1].as_ptr());
    let mut c11 = _mm256_loadu_pd(acc[1].as_ptr().add(4));
    let mut c20 = _mm256_loadu_pd(acc[2].as_ptr());
    let mut c21 = _mm256_loadu_pd(acc[2].as_ptr().add(4));
    let mut c30 = _mm256_loadu_pd(acc[3].as_ptr());
    let mut c31 = _mm256_loadu_pd(acc[3].as_ptr().add(4));
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    for row in 0..rows {
        let arow = ap.add(row * ac + i);
        let brow = bp.add(row * bc + j);
        let b0 = _mm256_loadu_pd(brow);
        let b1 = _mm256_loadu_pd(brow.add(4));
        let a0 = _mm256_set1_pd(*arow);
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(a0, b0));
        c01 = _mm256_add_pd(c01, _mm256_mul_pd(a0, b1));
        let a1 = _mm256_set1_pd(*arow.add(1));
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(a1, b0));
        c11 = _mm256_add_pd(c11, _mm256_mul_pd(a1, b1));
        let a2 = _mm256_set1_pd(*arow.add(2));
        c20 = _mm256_add_pd(c20, _mm256_mul_pd(a2, b0));
        c21 = _mm256_add_pd(c21, _mm256_mul_pd(a2, b1));
        let a3 = _mm256_set1_pd(*arow.add(3));
        c30 = _mm256_add_pd(c30, _mm256_mul_pd(a3, b0));
        c31 = _mm256_add_pd(c31, _mm256_mul_pd(a3, b1));
    }
    _mm256_storeu_pd(acc[0].as_mut_ptr(), c00);
    _mm256_storeu_pd(acc[0].as_mut_ptr().add(4), c01);
    _mm256_storeu_pd(acc[1].as_mut_ptr(), c10);
    _mm256_storeu_pd(acc[1].as_mut_ptr().add(4), c11);
    _mm256_storeu_pd(acc[2].as_mut_ptr(), c20);
    _mm256_storeu_pd(acc[2].as_mut_ptr().add(4), c21);
    _mm256_storeu_pd(acc[3].as_mut_ptr(), c30);
    _mm256_storeu_pd(acc[3].as_mut_ptr().add(4), c31);
}

/// `dst[c] += a · src[c]` — the axpy inside the sparse/SpMM/small-block
/// paths. Lanes are independent, so the vector variant is bit-identical
/// to the scalar loop.
#[inline]
pub(crate) fn axpy_f64(level: KernelLevel, a: f64, src: &[f64], dst: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if level == KernelLevel::Avx2 {
        // SAFETY: slices carry their own lengths; AVX2 from the dispatch
        // contract.
        unsafe { axpy_f64_avx2(a, src, dst) };
        return;
    }
    let _ = level;
    for (o, &s) in dst.iter_mut().zip(src) {
        *o += a * s;
    }
}

/// # Safety
///
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_f64_avx2(a: f64, src: &[f64], dst: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = dst.len().min(src.len());
    let av = _mm256_set1_pd(a);
    let sp = src.as_ptr();
    let dp = dst.as_mut_ptr();
    let mut c = 0usize;
    while c + 4 <= n {
        let d = _mm256_loadu_pd(dp.add(c));
        let s = _mm256_loadu_pd(sp.add(c));
        _mm256_storeu_pd(dp.add(c), _mm256_add_pd(d, _mm256_mul_pd(av, s)));
        c += 4;
    }
    if c < n {
        // Masked tail instead of a scalar remainder loop: lanes below
        // `n - c` are live; dead lanes load as zero, compute garbage,
        // and are never stored (masked lanes cannot fault, so reading
        // past the slice is fine). Each live lane still performs the
        // exact mul-then-add sequence of the scalar loop, so the f64
        // bit-parity rule holds through the tail.
        let live = _mm256_cmpgt_epi64(
            _mm256_set1_epi64x((n - c) as i64),
            _mm256_setr_epi64x(0, 1, 2, 3),
        );
        let d = _mm256_maskload_pd(dp.add(c), live);
        let s = _mm256_maskload_pd(sp.add(c), live);
        _mm256_maskstore_pd(dp.add(c), live, _mm256_add_pd(d, _mm256_mul_pd(av, s)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 2654435761 % 1000) as f64 / 500.0 - 1.0) * scale)
            .collect()
    }

    #[test]
    fn levels_are_ordered_and_labeled() {
        assert!(KernelLevel::Scalar < KernelLevel::Avx2);
        assert_eq!(kernel_label(KernelLevel::Scalar), "scalar");
        assert_eq!(kernel_label(KernelLevel::Avx2), "avx2");
        assert!(!isa_label().is_empty());
    }

    #[test]
    fn active_kernel_is_supported_and_stable() {
        let first = active_kernel();
        assert!(first <= detected_kernel());
        assert_eq!(active_kernel(), first);
    }

    #[test]
    fn avx2_tile4x8_is_bit_identical_to_scalar() {
        if detected_kernel() < KernelLevel::Avx2 {
            return;
        }
        for kd in [0usize, 1, 2, 7, 24, 48] {
            let rows: Vec<Vec<f64>> = (0..4).map(|r| seq(kd, 1.0 + r as f64)).collect();
            let a = [
                rows[0].as_slice(),
                rows[1].as_slice(),
                rows[2].as_slice(),
                rows[3].as_slice(),
            ];
            let b = seq(kd * 16, 0.7);
            let mut scalar = [[0.1f64; 8]; 4];
            let mut vector = scalar;
            tile4x8_f64(KernelLevel::Scalar, a, &b, 16, 8, &mut scalar);
            tile4x8_f64(KernelLevel::Avx2, a, &b, 16, 8, &mut vector);
            assert_eq!(scalar, vector, "kd {kd}");
        }
    }

    #[test]
    fn avx2_tile4x24_is_bit_identical_to_scalar() {
        if detected_kernel() < KernelLevel::Avx2 {
            return;
        }
        for kd in [1usize, 5, 24, 37] {
            let rows: Vec<Vec<f64>> = (0..4).map(|r| seq(kd, 0.5 + r as f64)).collect();
            let a = [
                rows[0].as_slice(),
                rows[1].as_slice(),
                rows[2].as_slice(),
                rows[3].as_slice(),
            ];
            let b = seq(kd * 24, 1.3);
            let mut scalar = [[0.0f64; 24]; 4];
            let mut vector = scalar;
            tile4x24_f64(KernelLevel::Scalar, a, &b, &mut scalar);
            tile4x24_f64(KernelLevel::Avx2, a, &b, &mut vector);
            assert_eq!(scalar, vector, "kd {kd}");
        }
    }

    #[test]
    fn avx2_tn_tile_is_bit_identical_to_scalar() {
        if detected_kernel() < KernelLevel::Avx2 {
            return;
        }
        let (ac, bc, rows) = (12usize, 20usize, 23usize);
        let a = seq(rows * ac, 0.9);
        let b = seq(rows * bc, 1.1);
        for (i, j) in [(0usize, 0usize), (4, 8), (8, 12)] {
            let mut scalar = [[0.2f64; 8]; 4];
            let mut vector = scalar;
            tn_tile4x8_f64(KernelLevel::Scalar, &a, &b, ac, bc, i, j, &mut scalar);
            tn_tile4x8_f64(KernelLevel::Avx2, &a, &b, ac, bc, i, j, &mut vector);
            assert_eq!(scalar, vector, "offsets ({i}, {j})");
        }
    }

    #[test]
    fn avx2_axpy_is_bit_identical_to_scalar() {
        if detected_kernel() < KernelLevel::Avx2 {
            return;
        }
        for n in [0usize, 1, 3, 4, 7, 8, 24, 101] {
            let src = seq(n, 1.7);
            let mut scalar = seq(n, 0.3);
            let mut vector = scalar.clone();
            axpy_f64(KernelLevel::Scalar, -0.37, &src, &mut scalar);
            axpy_f64(KernelLevel::Avx2, -0.37, &src, &mut vector);
            assert_eq!(scalar, vector, "len {n}");
        }
    }
}
