//! SWAR / SIMD scan kernels over packed byte columns.
//!
//! The monitor stages records as structure-of-arrays columns
//! ([`crate::monitor::RecordBlock`]), so the hot consumers — the
//! analyzer's kind-dispatch loop, [`crate::monitor::FilteredSink`], the
//! query engine's pushed-down [`crate::monitor::RecordFilter`] — all
//! scan a contiguous `&[u8]` asking one question: *which lanes hold one
//! of these byte values?* This module answers it 64 lanes per output
//! word, three ways:
//!
//! - **scalar**: one byte at a time. The reference implementation every
//!   other backend is differentially tested against (and the tail
//!   handler for the vector paths).
//! - **SWAR**: eight lanes per `u64` using an exact zero-byte mask
//!   (`(y & 0x7f..) + 0x7f.. | y`, no cross-lane carries, so no false
//!   positives) and a multiply-gather movemask. Portable — this is the
//!   default on non-x86 targets.
//! - **SSE2**: `_mm_cmpeq_epi8`/`_mm_movemask_epi8` over 16 lanes.
//!   SSE2 is part of the x86_64 baseline, so this needs no runtime
//!   feature detection; it is the default on x86_64.
//!
//! The backend is fixed at compile time ([`active_backend`]); every
//! backend produces bit-identical bitmaps (the differential tests in
//! this module and `machine_micro`'s `kindscan/*` bench group hold the
//! equivalence and the speed respectively). Wider vector paths were
//! left out on purpose: the scan is a few microseconds per 64 Ki
//! records, invisible next to the simulator's cost per record.

/// Which scan implementation services [`select_eq_any`] / [`count_eq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Byte-at-a-time reference loop.
    Scalar,
    /// Eight-lane SWAR over `u64` words.
    Swar,
    /// 16-lane SSE2 (`x86_64` baseline).
    Sse2,
}

impl Backend {
    /// Short display name (bench labels, logs).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Swar => "swar",
            Backend::Sse2 => "sse2",
        }
    }
}

/// The backend the dispatching entry points use: SSE2 on x86_64, SWAR
/// elsewhere.
pub const fn active_backend() -> Backend {
    if cfg!(target_arch = "x86_64") {
        Backend::Sse2
    } else {
        Backend::Swar
    }
}

/// The backends available on this target (for differential tests and
/// benches): always scalar and SWAR, plus SSE2 on x86_64.
pub fn available_backends() -> Vec<Backend> {
    let mut v = vec![Backend::Scalar, Backend::Swar];
    if cfg!(target_arch = "x86_64") {
        v.push(Backend::Sse2);
    }
    v
}

/// Builds the lane bitmap of `codes` positions holding any of `values`:
/// `out` gets `ceil(codes.len() / 64)` words, bit `i` of word `w` set
/// iff `codes[64 * w + i]` equals one of `values`. Bits past the end of
/// the column are zero. `out` is cleared first.
pub fn select_eq_any(codes: &[u8], values: &[u8], out: &mut Vec<u64>) {
    select_eq_any_with(active_backend(), codes, values, out);
}

/// [`select_eq_any`] on an explicit backend. On targets other than
/// x86_64 a request for SSE2 runs the scalar loop.
pub fn select_eq_any_with(backend: Backend, codes: &[u8], values: &[u8], out: &mut Vec<u64>) {
    out.clear();
    out.resize(codes.len().div_ceil(64), 0);
    match backend {
        Backend::Scalar => select_scalar(codes, values, out),
        Backend::Swar => select_swar(codes, values, out),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { select_sse2(codes, values, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Sse2 => select_scalar(codes, values, out),
    }
}

/// Counts the `codes` lanes equal to `value`.
pub fn count_eq(codes: &[u8], value: u8) -> u64 {
    count_eq_with(active_backend(), codes, value)
}

/// [`count_eq`] on an explicit backend (same fallback as
/// [`select_eq_any_with`]).
pub fn count_eq_with(backend: Backend, codes: &[u8], value: u8) -> u64 {
    match backend {
        Backend::Scalar => codes.iter().filter(|&&c| c == value).count() as u64,
        Backend::Swar => count_swar(codes, value),
        #[cfg(target_arch = "x86_64")]
        Backend::Sse2 => unsafe { count_sse2(codes, value) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Sse2 => codes.iter().filter(|&&c| c == value).count() as u64,
    }
}

/// Fills `out` with the all-lanes-set bitmap for a column of `len`
/// lanes (tail bits zero), the identity for further `AND`ing.
pub fn ones(len: usize, out: &mut Vec<u64>) {
    out.clear();
    out.resize(len.div_ceil(64), !0u64);
    if let Some(last) = out.last_mut() {
        let tail = len % 64;
        if tail != 0 {
            *last = (1u64 << tail) - 1;
        }
    }
}

/// Total set bits across a bitmap.
pub fn popcount(bitmaps: &[u64]) -> u64 {
    bitmaps.iter().map(|w| u64::from(w.count_ones())).sum()
}

fn select_scalar(codes: &[u8], values: &[u8], out: &mut [u64]) {
    for (i, &c) in codes.iter().enumerate() {
        if values.contains(&c) {
            out[i / 64] |= 1u64 << (i % 64);
        }
    }
}

const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// Per-lane equality mask: 0x80 in every lane of `x` equal to the lane
/// of `broadcast`. Exact — the add saturates inside each lane (max
/// 0x7f + 0x7f = 0xfe), so no carry crosses a lane boundary.
#[inline]
fn swar_eq(x: u64, broadcast: u64) -> u64 {
    let y = x ^ broadcast;
    let t = ((y & LO7).wrapping_add(LO7)) | y;
    !(t | LO7)
}

/// Compresses a 0x80-per-lane mask into the low 8 bits. The multiply
/// gathers bit `8i` into bit `56 + i`; the eight addends occupy
/// distinct bit positions, so no carries and the gather is exact.
#[inline]
fn swar_movemask(m: u64) -> u64 {
    ((m >> 7).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

#[inline]
fn broadcast(v: u8) -> u64 {
    u64::from(v) * 0x0101_0101_0101_0101
}

fn select_swar(codes: &[u8], values: &[u8], out: &mut [u64]) {
    let mut chunks = codes.chunks_exact(8);
    let mut lane = 0usize;
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let mut m = 0u64;
        for &v in values {
            m |= swar_eq(x, broadcast(v));
        }
        out[lane / 64] |= swar_movemask(m) << (lane % 64);
        lane += 8;
    }
    for (i, &c) in chunks.remainder().iter().enumerate() {
        if values.contains(&c) {
            let j = lane + i;
            out[j / 64] |= 1u64 << (j % 64);
        }
    }
}

fn count_swar(codes: &[u8], value: u8) -> u64 {
    let b = broadcast(value);
    let mut chunks = codes.chunks_exact(8);
    let mut n = 0u64;
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        n += u64::from(swar_eq(x, b).count_ones());
    }
    n + chunks.remainder().iter().filter(|&&c| c == value).count() as u64
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn select_sse2(codes: &[u8], values: &[u8], out: &mut [u64]) {
    use std::arch::x86_64::*;
    let mut chunks = codes.chunks_exact(16);
    let mut lane = 0usize;
    for chunk in &mut chunks {
        let x = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
        let mut m = _mm_setzero_si128();
        for &v in values {
            m = _mm_or_si128(m, _mm_cmpeq_epi8(x, _mm_set1_epi8(v as i8)));
        }
        let mask = _mm_movemask_epi8(m) as u32 as u64;
        out[lane / 64] |= mask << (lane % 64);
        lane += 16;
    }
    for (i, &c) in chunks.remainder().iter().enumerate() {
        if values.contains(&c) {
            let j = lane + i;
            out[j / 64] |= 1u64 << (j % 64);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn count_sse2(codes: &[u8], value: u8) -> u64 {
    use std::arch::x86_64::*;
    let v = _mm_set1_epi8(value as i8);
    let mut chunks = codes.chunks_exact(16);
    let mut n = 0u64;
    for chunk in &mut chunks {
        let x = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
        n += u64::from((_mm_movemask_epi8(_mm_cmpeq_epi8(x, v)) as u32).count_ones());
    }
    n + chunks.remainder().iter().filter(|&&c| c == value).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift column generator (no external RNG dep).
    fn column(seed: u64, len: usize, modulo: u8) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % u64::from(modulo)) as u8
            })
            .collect()
    }

    #[test]
    fn backends_agree_on_randomized_columns() {
        // Ragged lengths around the 8/16/64-lane boundaries, byte
        // alphabets matching the kind column (5 values) and a wider
        // one, and several accept sets including empty and full.
        let lens = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 4096, 5000];
        let value_sets: &[&[u8]] = &[&[], &[0], &[3], &[4], &[0, 1], &[0, 1, 2, 3], &[1, 2, 4]];
        for (i, &len) in lens.iter().enumerate() {
            for modulo in [5u8, 37] {
                let codes = column(0x9e37 + i as u64, len, modulo);
                for values in value_sets {
                    let mut oracle = Vec::new();
                    select_eq_any_with(Backend::Scalar, &codes, values, &mut oracle);
                    for b in available_backends() {
                        let mut got = Vec::new();
                        select_eq_any_with(b, &codes, values, &mut got);
                        assert_eq!(
                            got,
                            oracle,
                            "{} disagrees with scalar (len {len}, values {values:?})",
                            b.name()
                        );
                    }
                    for &v in values.iter() {
                        let want = count_eq_with(Backend::Scalar, &codes, v);
                        for b in available_backends() {
                            assert_eq!(count_eq_with(b, &codes, v), want, "{}", b.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dispatching_entry_points_match_scalar() {
        let codes = column(42, 10_000, 5);
        let mut oracle = Vec::new();
        select_eq_any_with(Backend::Scalar, &codes, &[1, 2], &mut oracle);
        let mut got = Vec::new();
        select_eq_any(&codes, &[1, 2], &mut got);
        assert_eq!(got, oracle);
        assert_eq!(
            count_eq(&codes, 3),
            count_eq_with(Backend::Scalar, &codes, 3)
        );
        assert_eq!(
            popcount(&oracle),
            codes.iter().filter(|&&c| (1..=2).contains(&c)).count() as u64
        );
    }

    #[test]
    fn ones_masks_the_tail() {
        let mut bm = Vec::new();
        ones(70, &mut bm);
        assert_eq!(bm.len(), 2);
        assert_eq!(bm[0], !0u64);
        assert_eq!(bm[1], (1u64 << 6) - 1);
        ones(64, &mut bm);
        assert_eq!(bm, vec![!0u64]);
        ones(0, &mut bm);
        assert!(bm.is_empty());
    }
}
