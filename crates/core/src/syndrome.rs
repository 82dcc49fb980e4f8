//! Syndromes: which first-round tests a faulty coupling trips (§V-B).
//!
//! A coupling `{a, b}` is included in first-round test `(i, v)` exactly
//! when bit `i` of *both* endpoints is `v`. Its syndrome is therefore the
//! set `{(i, a_i) : a_i = b_i}` — one entry per shared bit position
//! (Corollary V.8: at most `n − 1` entries, no repeated positions).

use itqc_circuit::Coupling;
use itqc_math::bits;
use std::collections::BTreeMap;
use std::fmt;

/// A syndrome: failing first-round tests, keyed by bit position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Syndrome {
    entries: BTreeMap<u32, bool>,
}

impl Syndrome {
    /// The empty syndrome (a bit-complementary pair, or no fault at all).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The syndrome a single faulty coupling produces on an `n_bits`-bit
    /// label space.
    pub fn of_coupling(coupling: Coupling, n_bits: u32) -> Self {
        let (a, b) = coupling.endpoints();
        let mut entries = BTreeMap::new();
        for i in bits::shared_bit_positions(a, b, n_bits) {
            entries.insert(i, bits::bit(a, i));
        }
        Syndrome { entries }
    }

    /// Adds one failing test `(bit, value)`. Returns `false` (and leaves
    /// the syndrome unchanged) if the position is already present with the
    /// *other* value — the signature of multiple faults.
    pub fn insert(&mut self, bit: u32, value: bool) -> bool {
        match self.entries.get(&bit) {
            Some(&v) if v != value => false,
            _ => {
                self.entries.insert(bit, value);
                true
            }
        }
    }

    /// Number of entries (the paper's syndrome length `L`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no test failed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(bit, value)` entries in ascending bit order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, bool)> + '_ {
        self.entries.iter().map(|(&i, &v)| (i, v))
    }

    /// Bit positions *not* fixed by the syndrome, ascending.
    pub fn free_positions(&self, n_bits: u32) -> Vec<u32> {
        (0..n_bits).filter(|i| !self.entries.contains_key(i)).collect()
    }

    /// `true` if `label` has every fixed bit at its syndrome value.
    pub fn matches(&self, label: usize) -> bool {
        self.entries.iter().all(|(&i, &v)| bits::bit(label, i) == v)
    }

    /// All candidate faulty couplings consistent with this syndrome on an
    /// `n_qubits` machine (labels `>= n_qubits` are padding and excluded).
    ///
    /// Lemma V.9: without padding there are exactly `2^{n−L−1}` candidates.
    pub fn candidates(&self, n_bits: u32, n_qubits: usize) -> Vec<Coupling> {
        let free = self.free_positions(n_bits);
        let k = free.len();
        if k == 0 {
            // All n bits fixed: impossible for a pair of *distinct* labels.
            return Vec::new();
        }
        let mut fixed_base = 0usize;
        for (i, v) in self.iter() {
            if v {
                fixed_base |= 1 << i;
            }
        }
        let mut out = Vec::new();
        // Enumerate assignments of the free bits for one endpoint; the
        // partner complements every free bit. Fixing free bit `free[0]` of
        // `a` to 0 dedupes {a,b} vs {b,a}.
        for assign in 0..(1usize << (k - 1)) {
            let mut a = fixed_base;
            for (j, &pos) in free.iter().enumerate().skip(1) {
                if (assign >> (j - 1)) & 1 == 1 {
                    a |= 1 << pos;
                }
            }
            let mut b = a;
            for &pos in &free {
                b ^= 1 << pos;
            }
            if a < n_qubits && b < n_qubits {
                out.push(Coupling::new(a, b));
            }
        }
        out
    }
}

impl fmt::Display for Syndrome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "(empty syndrome)");
        }
        let parts: Vec<String> =
            self.iter().map(|(i, v)| format!("({i},{})", u8::from(v))).collect();
        write!(f, "{}", parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A syndrome with the given `(bit, value)` entries.
    fn syndrome_with<const K: usize>(entries: [(u32, bool); K]) -> Syndrome {
        Syndrome { entries: entries.into_iter().collect() }
    }

    #[test]
    fn paper_example_v4_syndromes() {
        // {2,7} = {010, 111} share bit 1 with value 1 → syndrome {(1,1)}.
        let s = Syndrome::of_coupling(Coupling::new(2, 7), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(1, true)]);
        // Complementary pairs have empty syndromes.
        for (a, b) in [(0, 7), (1, 6), (2, 5), (3, 4)] {
            assert!(Syndrome::of_coupling(Coupling::new(a, b), 3).is_empty());
        }
    }

    #[test]
    fn syndrome_length_bounded_by_n_minus_1() {
        // Corollary V.8 over every pair at n = 4.
        for a in 0..16usize {
            for b in (a + 1)..16 {
                let s = Syndrome::of_coupling(Coupling::new(a, b), 4);
                assert!(s.len() <= 3);
            }
        }
    }

    #[test]
    fn candidates_count_matches_lemma_v9() {
        // Lemma V.9: a length-L syndrome on n bits has 2^{n−L−1} candidate
        // pairs (full label space, no padding).
        let n_bits = 4;
        let n_qubits = 16;
        for a in 0..n_qubits {
            for b in (a + 1)..n_qubits {
                let s = Syndrome::of_coupling(Coupling::new(a, b), n_bits);
                let l = s.len() as u32;
                let cands = s.candidates(n_bits, n_qubits);
                assert_eq!(cands.len(), 1usize << (n_bits - l - 1), "pair {{{a},{b}}}");
                assert!(cands.contains(&Coupling::new(a, b)));
            }
        }
    }

    #[test]
    fn paper_example_v11_candidates() {
        // Syndrome (0,0) ∧ (1,1): labels *10b → candidates {2,6} only.
        let s = syndrome_with([(0, false), (1, true)]);
        let c = s.candidates(3, 8);
        assert_eq!(c, vec![Coupling::new(2, 6)]);
        // Syndrome (0,0) alone: **0b → {0,6} and {2,4}.
        let s = syndrome_with([(0, false)]);
        let mut c = s.candidates(3, 8);
        c.sort();
        assert_eq!(c, vec![Coupling::new(0, 6), Coupling::new(2, 4)]);
    }

    #[test]
    fn padding_excludes_unphysical_candidates() {
        // 11 physical qubits on 4 bits: labels 11..16 never appear.
        let s = Syndrome::empty();
        let cands = s.candidates(4, 11);
        for c in &cands {
            assert!(c.hi() < 11);
        }
        // Complementary pairs {a, 15−a}: only those with both < 11, i.e.
        // a ∈ {5..7} ∪ partner — pairs {5,10},{6,9},{7,8}.
        assert_eq!(cands.len(), 3);
    }

    #[test]
    fn insert_detects_conflicts() {
        let mut s = Syndrome::empty();
        assert!(s.insert(2, true));
        assert!(s.insert(0, false));
        assert!(!s.insert(2, false), "conflicting value must be rejected");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn matches_checks_fixed_bits() {
        let s = syndrome_with([(0, false), (2, true)]);
        assert!(s.matches(0b100));
        assert!(s.matches(0b110));
        assert!(!s.matches(0b101));
        assert!(!s.matches(0b000));
    }

    #[test]
    fn display_formats() {
        let s = syndrome_with([(0, false), (1, true)]);
        assert_eq!(s.to_string(), "(0,0) (1,1)");
        assert_eq!(Syndrome::empty().to_string(), "(empty syndrome)");
    }
}
