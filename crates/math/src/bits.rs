//! Bit-manipulation helpers for qubit-index combinatorics.
//!
//! The paper's test classes (§V-A) are defined by bit predicates on qubit
//! labels `0..2^n`; these helpers centralise the bit algebra so the protocol
//! code in `itqc-core` reads like the paper.

/// Returns bit `i` of `x` as a `bool`.
#[inline]
pub fn bit(x: usize, i: u32) -> bool {
    (x >> i) & 1 == 1
}

/// Complements the low `n` bits of `x` (the paper's bit-complementary
/// partner of a qubit label).
///
/// # Example
///
/// ```
/// use itqc_math::bits::complement;
/// assert_eq!(complement(0b010, 3), 0b101);
/// ```
#[inline]
pub fn complement(x: usize, n: u32) -> usize {
    x ^ mask(n)
}

/// A mask of the low `n` bits.
#[inline]
pub fn mask(n: u32) -> usize {
    if n as usize >= usize::BITS as usize {
        usize::MAX
    } else {
        (1usize << n) - 1
    }
}

/// Returns `true` when `a` and `b` are bit-complementary over `n` bits.
#[inline]
pub fn is_complementary(a: usize, b: usize, n: u32) -> bool {
    a ^ b == mask(n)
}

/// The bit positions (ascending) where `a` and `b` agree, over `n` bits.
///
/// For a faulty coupling `{a,b}` these are exactly the first-round tests it
/// trips (its *syndrome* support — §V-B).
pub fn shared_bit_positions(a: usize, b: usize, n: u32) -> Vec<u32> {
    let same = !(a ^ b) & mask(n);
    (0..n).filter(|&i| bit(same, i)).collect()
}

/// Number of bits needed to label `count` items: `ceil(log2(count))`,
/// with a minimum of 1.
///
/// This is the paper's padding rule: an `N`-qubit machine is analysed with
/// `n = ceil(log2 N)` index bits and labels `N..2^n` simply never occur.
///
/// # Panics
///
/// Panics if `count == 0`.
pub fn label_bits(count: usize) -> u32 {
    assert!(count > 0, "cannot label zero items");
    let n = usize::BITS - (count - 1).leading_zeros();
    n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_accessors() {
        assert!(bit(0b100, 2));
        assert!(!bit(0b100, 1));
        assert!(bit(0b110, 1));
        assert!(!bit(0b110, 0));
    }

    #[test]
    fn complement_involution() {
        for x in 0..32usize {
            assert_eq!(complement(complement(x, 5), 5), x);
        }
    }

    #[test]
    fn complementary_detection() {
        assert!(is_complementary(0b011, 0b100, 3));
        assert!(!is_complementary(0b011, 0b101, 3));
        // Paper Example V.4: {0,7}, {1,6}, {2,5}, {3,4} are complementary in 3 bits.
        for (a, b) in [(0, 7), (1, 6), (2, 5), (3, 4)] {
            assert!(is_complementary(a, b, 3));
        }
    }

    #[test]
    fn shared_positions_match_paper_example() {
        // Paper Example V.4: {2,7} = {010, 111} share bit i=1.
        assert_eq!(shared_bit_positions(2, 7, 3), vec![1]);
        // Complementary pair shares nothing.
        assert!(shared_bit_positions(3, 4, 3).is_empty());
    }

    #[test]
    fn shared_and_differing_partition() {
        for a in 0..16usize {
            for b in 0..16usize {
                let s = shared_bit_positions(a, b, 4);
                let d = (a ^ b).count_ones() as usize;
                assert_eq!(s.len() + d, 4);
                assert!(s.iter().all(|&i| bit(a, i) == bit(b, i)));
            }
        }
    }

    #[test]
    fn label_bits_values() {
        assert_eq!(label_bits(1), 1);
        assert_eq!(label_bits(2), 1);
        assert_eq!(label_bits(3), 2);
        assert_eq!(label_bits(8), 3);
        assert_eq!(label_bits(9), 4);
        assert_eq!(label_bits(11), 4);
        assert_eq!(label_bits(32), 5);
    }
}
