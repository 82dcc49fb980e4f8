//! Binary reflected Gray codes.
//!
//! One consumer calls [`gray`]: the test of the paper's §V-A observation
//! that the complementary-pair classes satisfy `[i,=] = (GrayCode(i), 0)`
//! (footnote 7, in `itqc_core::classes`). The commuting-XX simulator's
//! phase walk (`itqc_sim::xx::gray_phase_walk`) visits spin
//! configurations in this order without calling it: step `k` flips bit
//! `trailing_zeros(k)`, the rule the tests below pin.

/// Returns the `k`-th binary reflected Gray code: `k ^ (k >> 1)`.
///
/// # Example
///
/// ```
/// use itqc_math::gray;
/// assert_eq!((0..8).map(gray).collect::<Vec<_>>(), [0, 1, 3, 2, 6, 7, 5, 4]);
/// ```
#[inline]
pub fn gray(k: usize) -> usize {
    k ^ (k >> 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_codes_differ_in_one_bit() {
        for k in 1..1024usize {
            let diff = gray(k) ^ gray(k - 1);
            assert_eq!(diff.count_ones(), 1, "k={k}");
        }
    }

    #[test]
    fn flips_reproduce_gray_sequence() {
        // Flipping bit trailing_zeros(k) at step k visits every m-bit
        // state once, in Gray order.
        let m = 10u32;
        let mut state = 0usize;
        let mut visited = vec![false; 1 << m];
        visited[0] = true;
        for k in 1..1usize << m {
            state ^= 1 << k.trailing_zeros();
            assert_eq!(state, gray(k));
            assert!(!visited[state], "state revisited");
            visited[state] = true;
        }
        assert!(visited.iter().all(|&v| v), "walk must cover all states");
    }

    #[test]
    fn flips_match_gray_differences() {
        for k in 1..256usize {
            let expect = (gray(k) ^ gray(k - 1)).trailing_zeros();
            assert_eq!(k.trailing_zeros(), expect, "k={k}");
        }
    }
}
