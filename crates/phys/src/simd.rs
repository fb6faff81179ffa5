//! Portable chunked-loop kernels for the hot row sweeps in
//! [`crate::reception`].
//!
//! Stable Rust only — no nightly `std::simd`, no intrinsics, no new
//! dependencies. Each kernel walks its slices in fixed-width chunks of
//! 4 `f64` lanes with the lane operations written out explicitly and a
//! scalar tail for the remainder. The shapes are exactly what LLVM's
//! autovectorizer turns into packed `addpd` sequences on x86-64 and the
//! NEON equivalents on aarch64, while staying bit-identical to the naive
//! scalar loop: every per-listener element sees the same single add in
//! the same order, so totals (and therefore reception decisions, which
//! are additionally protected by the drift-bound replay machinery in
//! the reception kernels) do not depend on whether vector units exist.

/// Lane width used by the `f64` kernels.
const LANES_F64: usize = 4;

/// `acc[i] += row[i]` over the common length, 4-lane unrolled.
///
/// Panics in debug builds if the slices disagree on length; release
/// builds take the shorter (callers always pass equal lengths).
#[inline]
pub fn add_assign(acc: &mut [f64], row: &[f64]) {
    debug_assert_eq!(acc.len(), row.len());
    let len = acc.len().min(row.len());
    let (acc, row) = (&mut acc[..len], &row[..len]);
    let mut chunks = acc.chunks_exact_mut(LANES_F64);
    let mut rows = row.chunks_exact(LANES_F64);
    for (a, r) in chunks.by_ref().zip(rows.by_ref()) {
        a[0] += r[0];
        a[1] += r[1];
        a[2] += r[2];
        a[3] += r[3];
    }
    for (a, r) in chunks.into_remainder().iter_mut().zip(rows.remainder()) {
        *a += r;
    }
}

/// Folds one candidate sender into a running nearest-sender selection:
/// `best_s[i] = s` wherever `drow[i] < best_d2[i]` (strictly), with
/// `best_d2` lowered to match — branchless compare+select lanes instead
/// of the data-dependent branch the naive loop takes on every listener.
///
/// Strict `<` means ties keep the incumbent, so folding candidates in
/// **ascending sender order** reproduces the exact backend's
/// first-minimum tie-break — the lexicographic (d², s) minimum. The
/// comparison is exact (no float arithmetic), so the result is
/// identical to the scalar scan no matter how the loop is lowered.
#[inline]
pub fn lex_min_row(best_d2: &mut [f64], best_s: &mut [usize], drow: &[f64], s: usize) {
    debug_assert_eq!(best_d2.len(), drow.len());
    debug_assert_eq!(best_d2.len(), best_s.len());
    let len = best_d2.len().min(best_s.len()).min(drow.len());
    let (bd, bs, dr) = (&mut best_d2[..len], &mut best_s[..len], &drow[..len]);
    for ((d2, sel), &d) in bd.iter_mut().zip(bs.iter_mut()).zip(dr) {
        let take = d < *d2;
        *sel = if take { s } else { *sel };
        *d2 = if take { d } else { *d2 };
    }
}

/// Like [`lex_min_row`], but with the full lexicographic (d², s)
/// comparison per lane: the candidate also wins distance *ties* when
/// its index is lower than the incumbent's. This makes the fold
/// order-independent — strict lexicographic comparison totally orders
/// the (d², s) candidates — so callers may fold rows in any order
/// (e.g. after a pruning pass reordered or dropped some) and still
/// land on exactly the ascending scan's winner. The `d < ∞` guard
/// keeps a row's +∞ entries (the diagonal) from tying into an as-yet
/// unset (∞, `usize::MAX`) selection.
#[inline]
pub fn lex_min_row_idx(best_d2: &mut [f64], best_s: &mut [usize], drow: &[f64], s: usize) {
    debug_assert_eq!(best_d2.len(), drow.len());
    debug_assert_eq!(best_d2.len(), best_s.len());
    let len = best_d2.len().min(best_s.len()).min(drow.len());
    let (bd, bs, dr) = (&mut best_d2[..len], &mut best_s[..len], &drow[..len]);
    for ((d2, sel), &d) in bd.iter_mut().zip(bs.iter_mut()).zip(dr) {
        let take = d < *d2 || (d == *d2 && d < f64::INFINITY && s < *sel);
        *sel = if take { s } else { *sel };
        *d2 = if take { d } else { *d2 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: usize) -> (Vec<f64>, Vec<f64>) {
        let acc: Vec<f64> = (0..n).map(|i| (i as f64).mul_add(0.37, 1.5)).collect();
        let row: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        (acc, row)
    }

    #[test]
    fn unrolled_kernels_match_scalar_loop_bit_for_bit_at_every_tail() {
        // Lane-remainder lengths around the chunk width plus a long one.
        for n in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100] {
            let (acc0, row) = rows(n);
            let mut a = acc0.clone();
            add_assign(&mut a, &row);
            let expect: Vec<f64> = acc0.iter().zip(&row).map(|(x, y)| x + y).collect();
            assert_eq!(a, expect, "add_assign n={n}");
        }
    }

    #[test]
    fn lex_min_row_matches_the_scalar_first_minimum_scan() {
        for n in [0, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 100] {
            // Rows with deliberate ties across senders (d repeats every 4)
            // so the strict-< incumbent rule is exercised, folded in
            // ascending sender order exactly as the callers do.
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|s| (0..n).map(|i| ((i + s) % 4) as f64 + 1.0).collect())
                .collect();
            let mut bd = vec![f64::INFINITY; n];
            let mut bs = vec![usize::MAX; n];
            for (s, row) in rows.iter().enumerate() {
                lex_min_row(&mut bd, &mut bs, row, s);
            }
            let mut want_d = vec![f64::INFINITY; n];
            let mut want_s = vec![usize::MAX; n];
            for (s, row) in rows.iter().enumerate() {
                for i in 0..n {
                    if row[i] < want_d[i] {
                        want_d[i] = row[i];
                        want_s[i] = s;
                    }
                }
            }
            assert_eq!(bd, want_d, "distances n={n}");
            assert_eq!(bs, want_s, "senders n={n}");
        }
    }

    #[test]
    fn lex_min_row_idx_is_order_independent_and_breaks_ties_by_index() {
        for n in [0, 1, 3, 4, 5, 8, 9, 63, 64, 65, 100] {
            // Rows with deliberate distance ties plus ∞ "diagonal"
            // holes, folded in descending sender order — the result
            // must still be the ascending scan's lexicographic winner.
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|s| {
                    (0..n)
                        .map(|i| {
                            if i % 7 == s {
                                f64::INFINITY
                            } else {
                                ((i + s) % 3) as f64 + 1.0
                            }
                        })
                        .collect()
                })
                .collect();
            let mut bd = vec![f64::INFINITY; n];
            let mut bs = vec![usize::MAX; n];
            for (s, row) in rows.iter().enumerate().rev() {
                lex_min_row_idx(&mut bd, &mut bs, row, s);
            }
            let mut want_d = vec![f64::INFINITY; n];
            let mut want_s = vec![usize::MAX; n];
            for (s, row) in rows.iter().enumerate() {
                for i in 0..n {
                    if row[i] < want_d[i] {
                        want_d[i] = row[i];
                        want_s[i] = s;
                    }
                }
            }
            assert_eq!(bd, want_d, "distances n={n}");
            assert_eq!(bs, want_s, "senders n={n}");
        }
    }
}
