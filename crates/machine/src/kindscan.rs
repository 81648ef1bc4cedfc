//! SWAR scan kernels over packed byte columns.
//!
//! The monitor stages records as structure-of-arrays columns
//! ([`crate::monitor::RecordBlock`]), so the analyzer's kind-dispatch
//! loop scans a contiguous `&[u8]` asking one question: *which lanes
//! hold one of these byte values?* This module answers it 64 lanes per
//! output word with one portable, safe kernel: SWAR, eight lanes per
//! `u64`, using an exact per-lane equality mask (`(y & 0x7f..) +
//! 0x7f.. | y`, no cross-lane carries, so no false positives) and a
//! multiply-gather movemask.
//!
//! A byte-at-a-time loop is the kernel's differential oracle in this
//! module's tests; `machine_micro`'s `kindscan/*` group times the
//! kernel. Vector-intrinsic kernels were left out on purpose: the scan
//! is a few microseconds per 64 Ki records, invisible next to the
//! simulator's cost per record.

/// Builds the lane bitmap of `codes` positions holding any of `values`:
/// `out` gets `ceil(codes.len() / 64)` words, bit `i` of word `w` set
/// iff `codes[64 * w + i]` equals one of `values`. Bits past the end of
/// the column are zero. `out` is cleared first.
pub fn select_eq_any(codes: &[u8], values: &[u8], out: &mut Vec<u64>) {
    out.clear();
    out.resize(codes.len().div_ceil(64), 0);
    select_swar(codes, values, out);
}

/// Total set bits across a bitmap.
pub fn popcount(bitmaps: &[u64]) -> u64 {
    bitmaps.iter().map(|w| u64::from(w.count_ones())).sum()
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

    /// The byte-at-a-time oracle the SWAR kernel is tested against.
    fn select_scalar(codes: &[u8], values: &[u8]) -> Vec<u64> {
        let mut out = vec![0u64; codes.len().div_ceil(64)];
        for (i, &c) in codes.iter().enumerate() {
            if values.contains(&c) {
                out[i / 64] |= 1u64 << (i % 64);
            }
        }
        out
    }

    /// The shipping SWAR kernel against the scalar oracle.
    #[test]
    fn backends_agree_on_randomized_columns() {
        // Ragged lengths around the 8- and 64-lane boundaries, byte
        // alphabets matching the kind column (5 values) and a wider
        // one, and several accept sets including empty and full.
        let lens = [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 4096, 5000];
        let value_sets: &[&[u8]] = &[&[], &[0], &[3], &[4], &[0, 1], &[0, 1, 2, 3], &[1, 2, 4]];
        let mut got = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            for modulo in [5u8, 37] {
                let codes = column(0x9e37 + i as u64, len, modulo);
                for values in value_sets {
                    select_eq_any(&codes, values, &mut got);
                    assert_eq!(
                        got,
                        select_scalar(&codes, values),
                        "SWAR disagrees with scalar (len {len}, values {values:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatching_entry_points_match_scalar() {
        let codes = column(42, 10_000, 5);
        let mut got = Vec::new();
        select_eq_any(&codes, &[1, 2], &mut got);
        assert_eq!(got, select_scalar(&codes, &[1, 2]));
        assert_eq!(
            popcount(&got),
            codes.iter().filter(|&&c| (1..=2).contains(&c)).count() as u64
        );
    }
}
