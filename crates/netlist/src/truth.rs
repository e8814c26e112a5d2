//! Truth tables: the logic function attached to every gate and LUT.
//!
//! A [`TruthTable`] over `k ≤ MAX_INPUTS` inputs stores its on-set as a
//! bitmap. Input `i` corresponds to bit `i` of the row index (input 0 is the
//! least significant bit). Besides plain evaluation it supports three-valued
//! evaluation (for simulation with partial initial states) and
//! **justification** — finding an input vector that produces a required
//! output, the primitive behind backward-retiming initial state computation.

use crate::bit::Bit;

/// Maximum supported truth table arity.
///
/// `2^16` rows (1 KiB of bitmap) is plenty: gates are decomposed to ≤ 2
/// inputs before mapping and LUTs have at most `K ≤ 8` inputs.
pub const MAX_INPUTS: usize = 16;

/// Largest arity whose on-set fits one `u64` word (`2^6` rows): the
/// range of the branch-free kernel [`eval3_planes_word`].
pub(crate) const WORD_INPUTS: usize = 6;

/// Batched three-valued evaluation of a function of `k = inputs.len() ≤`
/// [`WORD_INPUTS`] inputs whose on-set is `table` (bit `r` = row `r`,
/// input `i` = bit `i` of the row), in the two-bitplane encoding of
/// [`TruthTable::eval3_planes`].
///
/// A Shannon mux tree over the planes: row `r` becomes the mask `M(f(r))`
/// (all-ones when `f(r) = 1`), and each input `i`, from input 0 up,
/// halves the row set by `out_b = (p0_i & lo_b) | (p1_i & hi_b)` for both
/// output planes `b`. Distributing the ANDs over the ORs gives the same
/// sum of minterm products as the row walk, so controlling-value `X`
/// masking is exact. No branch depends on the lane data.
///
/// # Panics
///
/// Panics if `inputs.len() > WORD_INPUTS`.
#[inline]
pub(crate) fn eval3_planes_word(table: u64, inputs: &[(u64, u64)]) -> (u64, u64) {
    match inputs.len() {
        0 => mux_tree::<0>(table, inputs),
        1 => mux_tree::<1>(table, inputs),
        2 => mux_tree::<2>(table, inputs),
        3 => mux_tree::<3>(table, inputs),
        4 => mux_tree::<4>(table, inputs),
        5 => mux_tree::<5>(table, inputs),
        6 => mux_tree::<6>(table, inputs),
        k => panic!("{k} inputs exceed the {WORD_INPUTS}-input word kernel"),
    }
}

/// [`eval3_planes_word`] at a compile-time arity `K`, so every loop
/// unrolls and the level arrays stay in registers.
#[inline(always)]
fn mux_tree<const K: usize>(table: u64, inputs: &[(u64, u64)]) -> (u64, u64) {
    let mut lo = [0u64; 1 << WORD_INPUTS];
    let mut hi = [0u64; 1 << WORD_INPUTS];
    for r in 0..1 << K {
        let m = ((table >> r) & 1).wrapping_neg();
        lo[r] = !m;
        hi[r] = m;
    }
    let mut width = 1 << K;
    for &(p0, p1) in &inputs[..K] {
        width >>= 1;
        for j in 0..width {
            lo[j] = (p0 & lo[2 * j]) | (p1 & lo[2 * j + 1]);
            hi[j] = (p0 & hi[2 * j]) | (p1 & hi[2 * j + 1]);
        }
    }
    (lo[0], hi[0])
}

/// A complete Boolean function of `k` inputs, stored as its on-set bitmap.
///
/// A function of at most 6 inputs keeps its on-set inline in one word,
/// so a gate's table costs no allocation; a wider one boxes its words.
/// Every arity has exactly one representation, and unused high bits of
/// the word stay zero, so the derived `Eq` and `Hash` compare functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TruthTable(Repr);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `num_inputs ≤ WORD_INPUTS`: bit `r` is row `r`.
    Word { num_inputs: u8, word: u64 },
    /// `num_inputs > WORD_INPUTS`.
    Wide(Box<Wide>),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Wide {
    num_inputs: u8,
    /// Bit `r % 64` of `words[r / 64]` is 1 iff row `r` is in the on-set.
    words: Box<[u64]>,
}

impl TruthTable {
    /// The on-set words (one for arities up to [`WORD_INPUTS`]).
    fn words(&self) -> &[u64] {
        match &self.0 {
            Repr::Word { word, .. } => std::slice::from_ref(word),
            Repr::Wide(w) => &w.words,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::Word { word, .. } => std::slice::from_mut(word),
            Repr::Wide(w) => &mut w.words,
        }
    }

    /// The constant-zero function of `num_inputs` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > MAX_INPUTS`.
    pub fn const_zero(num_inputs: usize) -> TruthTable {
        assert!(num_inputs <= MAX_INPUTS, "too many truth table inputs");
        let k = num_inputs as u8;
        TruthTable(if num_inputs <= WORD_INPUTS {
            Repr::Word {
                num_inputs: k,
                word: 0,
            }
        } else {
            Repr::Wide(Box::new(Wide {
                num_inputs: k,
                words: vec![0; 1 << (num_inputs - WORD_INPUTS)].into_boxed_slice(),
            }))
        })
    }

    /// The constant-one function of `num_inputs` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > MAX_INPUTS`.
    pub fn const_one(num_inputs: usize) -> TruthTable {
        let mut tt = Self::const_zero(num_inputs);
        let rows = 1usize << num_inputs;
        for r in 0..rows {
            tt.set(r, true);
        }
        tt
    }

    /// Builds a table from a row predicate.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > MAX_INPUTS`.
    ///
    /// # Examples
    ///
    /// ```
    /// use netlist::TruthTable;
    /// let maj = TruthTable::from_fn(3, |r| (r.count_ones() >= 2));
    /// assert!(maj.eval_row(0b011));
    /// assert!(!maj.eval_row(0b100));
    /// ```
    pub fn from_fn(num_inputs: usize, mut f: impl FnMut(usize) -> bool) -> TruthTable {
        let mut tt = Self::const_zero(num_inputs);
        for r in 0..(1usize << num_inputs) {
            if f(r) {
                tt.set(r, true);
            }
        }
        tt
    }

    /// Builds a table 64 rows at a time: `f(w)` is the on-set of rows
    /// `64·w ..= 64·w + 63`, row `r` at bit `r % 64`. Bits past the last
    /// row are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > MAX_INPUTS`.
    pub fn from_word_fn(num_inputs: usize, mut f: impl FnMut(usize) -> u64) -> TruthTable {
        let mut tt = Self::const_zero(num_inputs);
        let mask = match 1u32 << num_inputs.min(WORD_INPUTS) {
            64 => !0,
            rows => (1u64 << rows) - 1,
        };
        for (w, word) in tt.words_mut().iter_mut().enumerate() {
            *word = f(w) & mask;
        }
        tt
    }

    /// The identity function of one input (a buffer).
    pub fn buf() -> TruthTable {
        Self::from_fn(1, |r| r == 1)
    }

    /// NOT of one input.
    pub fn not() -> TruthTable {
        Self::from_fn(1, |r| r == 0)
    }

    /// AND of `k` inputs.
    pub fn and(k: usize) -> TruthTable {
        Self::from_fn(k, |r| r == (1usize << k) - 1)
    }

    /// OR of `k` inputs.
    pub fn or(k: usize) -> TruthTable {
        Self::from_fn(k, |r| r != 0)
    }

    /// NAND of `k` inputs.
    pub fn nand(k: usize) -> TruthTable {
        Self::from_fn(k, |r| r != (1usize << k) - 1)
    }

    /// NOR of `k` inputs.
    pub fn nor(k: usize) -> TruthTable {
        Self::from_fn(k, |r| r == 0)
    }

    /// XOR (odd parity) of `k` inputs.
    pub fn xor(k: usize) -> TruthTable {
        Self::from_fn(k, |r| r.count_ones() % 2 == 1)
    }

    /// 2-to-1 multiplexer: inputs `(sel, a, b)`, output `a` when `sel = 0`,
    /// `b` when `sel = 1`.
    pub fn mux() -> TruthTable {
        Self::from_fn(3, |r| {
            let sel = r & 1 != 0;
            let a = r & 2 != 0;
            let b = r & 4 != 0;
            if sel {
                b
            } else {
                a
            }
        })
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        match &self.0 {
            Repr::Word { num_inputs, .. } => *num_inputs as usize,
            Repr::Wide(w) => w.num_inputs as usize,
        }
    }

    /// Number of rows (`2^k`).
    pub fn num_rows(&self) -> usize {
        1usize << self.num_inputs()
    }

    /// Sets row `r` of the on-set.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn set(&mut self, r: usize, value: bool) {
        assert!(r < self.num_rows(), "row out of range");
        let word = &mut self.words_mut()[r / 64];
        if value {
            *word |= 1u64 << (r % 64);
        } else {
            *word &= !(1u64 << (r % 64));
        }
    }

    /// Evaluates row `r` (input `i` = bit `i` of `r`).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn eval_row(&self, r: usize) -> bool {
        assert!(r < self.num_rows(), "row out of range");
        (self.words()[r / 64] >> (r % 64)) & 1 == 1
    }

    /// Evaluates on a slice of concrete inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval(&self, inputs: &[bool]) -> bool {
        assert_eq!(inputs.len(), self.num_inputs(), "arity mismatch");
        let mut r = 0usize;
        for (i, &b) in inputs.iter().enumerate() {
            if b {
                r |= 1 << i;
            }
        }
        self.eval_row(r)
    }

    /// Three-valued evaluation: returns `0`/`1` if the output is the same
    /// for every completion of the `X` inputs, else `X`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval3(&self, inputs: &[Bit]) -> Bit {
        assert_eq!(inputs.len(), self.num_inputs(), "arity mismatch");
        let mut base = 0usize;
        let mut x_positions: Vec<usize> = Vec::new();
        for (i, &b) in inputs.iter().enumerate() {
            match b {
                Bit::One => base |= 1 << i,
                Bit::Zero => {}
                Bit::X => x_positions.push(i),
            }
        }
        let first = self.eval_row(base);
        // Enumerate all completions of the X inputs.
        let combos = 1usize << x_positions.len();
        for c in 1..combos {
            let mut r = base;
            for (j, &pos) in x_positions.iter().enumerate() {
                if (c >> j) & 1 == 1 {
                    r |= 1 << pos;
                }
            }
            if self.eval_row(r) != first {
                return Bit::X;
            }
        }
        Bit::from_bool(first)
    }

    /// Batched three-valued evaluation over 64 lanes at once.
    ///
    /// Each input is a two-bitplane word `(p0, p1)`: bit `l` of `p0` means
    /// lane `l` *could be 0*, bit `l` of `p1` means it *could be 1* (both
    /// set = `X`). The result uses the same encoding. Semantics match 64
    /// independent [`eval3`](Self::eval3) calls: a lane's output plane bit
    /// is set iff some completion of its `X` inputs reaches a row with
    /// that output value, so the output is defined exactly when every
    /// completion agrees.
    ///
    /// Tables of at most 6 inputs go through a branch-free Shannon mux
    /// tree over the planes: `O(2^k)` word operations. Wider
    /// tables walk their rows, one minterm mask per row, at
    /// `O(2^k · k)`. Both compute the same sum of minterm products, bit
    /// for bit.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval3_planes(&self, inputs: &[(u64, u64)]) -> (u64, u64) {
        assert_eq!(inputs.len(), self.num_inputs(), "arity mismatch");
        if let Some(table) = self.word() {
            return eval3_planes_word(table, inputs);
        }
        let words = self.words();
        let mut out0 = 0u64;
        let mut out1 = 0u64;
        for r in 0..self.num_rows() {
            // Lanes whose inputs are consistent with row assignment `r`.
            let mut consistent = !0u64;
            for (i, &(p0, p1)) in inputs.iter().enumerate() {
                consistent &= if (r >> i) & 1 == 1 { p1 } else { p0 };
                if consistent == 0 {
                    break;
                }
            }
            if consistent == 0 {
                continue;
            }
            if (words[r / 64] >> (r % 64)) & 1 == 1 {
                out1 |= consistent;
            } else {
                out0 |= consistent;
            }
        }
        (out0, out1)
    }

    /// The whole on-set as one word (bit `r` = row `r`) when the table
    /// has at most [`WORD_INPUTS`] inputs.
    pub(crate) fn word(&self) -> Option<u64> {
        match self.0 {
            Repr::Word { word, .. } => Some(word),
            Repr::Wide(_) => None,
        }
    }

    /// Finds an input vector `j` with `f(j) = target`, maximising the number
    /// of `X` inputs greedily (an `X` is kept only if the output stays
    /// defined and equal to `target`).
    ///
    /// Returns `None` when `target` is not in the function's range. This is
    /// the core primitive of backward-retiming initial state justification.
    ///
    /// # Panics
    ///
    /// Panics if `target` is `X` (justifying an unknown is trivially all-X
    /// and callers should handle it directly).
    ///
    /// # Examples
    ///
    /// ```
    /// use netlist::{Bit, TruthTable};
    /// let and2 = TruthTable::and(2);
    /// assert_eq!(and2.justify(Bit::One), Some(vec![Bit::One, Bit::One]));
    /// let j0 = and2.justify(Bit::Zero).unwrap();
    /// assert_eq!(and2.eval3(&j0), Bit::Zero);
    /// assert!(j0.contains(&Bit::X)); // one input X'd out
    /// ```
    pub fn justify(&self, target: Bit) -> Option<Vec<Bit>> {
        let want = target
            .to_bool()
            .expect("cannot justify an X target; handle X at the call site");
        let row = (0..self.num_rows()).find(|&r| self.eval_row(r) == want)?;
        let mut assignment: Vec<Bit> = (0..self.num_inputs())
            .map(|i| Bit::from_bool((row >> i) & 1 == 1))
            .collect();
        // Greedily generalise inputs to X where the output stays defined.
        for i in 0..assignment.len() {
            let saved = assignment[i];
            assignment[i] = Bit::X;
            if self.eval3(&assignment) == target {
                continue;
            }
            assignment[i] = saved;
        }
        Some(assignment)
    }

    /// True when the function ignores input `i`.
    pub fn input_is_redundant(&self, i: usize) -> bool {
        assert!(i < self.num_inputs(), "input index out of range");
        let mask = 1usize << i;
        (0..self.num_rows())
            .filter(|r| r & mask == 0)
            .all(|r| self.eval_row(r) == self.eval_row(r | mask))
    }

    /// Returns the cofactor obtained by fixing input `i` to `value` (the
    /// result has one fewer input; remaining inputs keep their order).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cofactor(&self, i: usize, value: bool) -> TruthTable {
        assert!(i < self.num_inputs(), "input index out of range");
        let k = self.num_inputs() - 1;
        TruthTable::from_fn(k, |r| {
            let low = r & ((1 << i) - 1);
            let high = (r >> i) << (i + 1);
            let mut full = low | high;
            if value {
                full |= 1 << i;
            }
            self.eval_row(full)
        })
    }

    /// True for the constant-zero or constant-one function.
    pub fn is_constant(&self) -> Option<bool> {
        let ones = self.count_ones();
        if ones == 0 {
            Some(false)
        } else if ones == self.num_rows() {
            Some(true)
        } else {
            None
        }
    }

    /// Number of on-set rows.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl std::fmt::Display for TruthTable {
    /// Hex on-set, most significant row first, e.g. `and(2)` is `tt2:8`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tt{}:", self.num_inputs())?;
        let rows = self.num_rows();
        let nibbles = rows.div_ceil(4).max(1);
        for n in (0..nibbles).rev() {
            let mut nib = 0u8;
            for b in 0..4 {
                let r = n * 4 + b;
                if r < rows && self.eval_row(r) {
                    nib |= 1 << b;
                }
            }
            write!(f, "{nib:x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_constructors() {
        assert!(TruthTable::and(3).eval(&[true, true, true]));
        assert!(!TruthTable::and(3).eval(&[true, false, true]));
        assert!(TruthTable::or(2).eval(&[false, true]));
        assert!(TruthTable::nand(2).eval(&[true, false]));
        assert!(TruthTable::nor(2).eval(&[false, false]));
        assert!(TruthTable::xor(2).eval(&[true, false]));
        assert!(!TruthTable::xor(2).eval(&[true, true]));
        assert!(TruthTable::not().eval(&[false]));
        assert!(TruthTable::buf().eval(&[true]));
    }

    #[test]
    fn mux_semantics() {
        let m = TruthTable::mux();
        // (sel, a, b)
        assert!(m.eval(&[false, true, false]));
        assert!(!m.eval(&[false, false, true]));
        assert!(m.eval(&[true, false, true]));
        assert!(!m.eval(&[true, true, false]));
    }

    #[test]
    fn eval3_controlling_input() {
        let and2 = TruthTable::and(2);
        assert_eq!(and2.eval3(&[Bit::Zero, Bit::X]), Bit::Zero);
        assert_eq!(and2.eval3(&[Bit::One, Bit::X]), Bit::X);
        let or2 = TruthTable::or(2);
        assert_eq!(or2.eval3(&[Bit::One, Bit::X]), Bit::One);
    }

    #[test]
    fn eval3_xor_redundancy() {
        // f = a XOR a-like: a function where an X input is actually
        // redundant must still evaluate defined.
        let f = TruthTable::from_fn(2, |r| r & 1 == 1); // ignores input 1
        assert_eq!(f.eval3(&[Bit::One, Bit::X]), Bit::One);
        assert_eq!(f.eval3(&[Bit::Zero, Bit::X]), Bit::Zero);
        assert!(f.input_is_redundant(1));
        assert!(!f.input_is_redundant(0));
    }

    #[test]
    fn justify_respects_target() {
        for tt in [
            TruthTable::and(3),
            TruthTable::or(3),
            TruthTable::xor(3),
            TruthTable::nand(2),
            TruthTable::mux(),
        ] {
            for target in [Bit::Zero, Bit::One] {
                let j = tt.justify(target).expect("non-constant function");
                assert_eq!(tt.eval3(&j), target, "{tt} target {target}");
            }
        }
    }

    #[test]
    fn justify_constant_range() {
        let zero = TruthTable::const_zero(2);
        assert_eq!(zero.justify(Bit::One), None);
        assert!(zero.justify(Bit::Zero).is_some());
        // Constant of arity 0.
        let one0 = TruthTable::const_one(0);
        assert_eq!(one0.justify(Bit::One), Some(vec![]));
        assert_eq!(one0.justify(Bit::Zero), None);
    }

    #[test]
    fn justify_generalises_with_x() {
        let or3 = TruthTable::or(3);
        let j = or3.justify(Bit::One).unwrap();
        // One input 1 is enough; the others should be X.
        assert_eq!(j.iter().filter(|&&b| b == Bit::X).count(), 2);
    }

    #[test]
    fn cofactor_shrinks_and_matches() {
        let m = TruthTable::mux();
        let sel0 = m.cofactor(0, false); // output = a, inputs now (a, b)
        assert!(sel0.eval(&[true, false]));
        assert!(!sel0.eval(&[false, true]));
        let sel1 = m.cofactor(0, true); // output = b
        assert!(sel1.eval(&[false, true]));
        assert!(!sel1.eval(&[true, false]));
    }

    #[test]
    fn constants_detected() {
        assert_eq!(TruthTable::const_zero(3).is_constant(), Some(false));
        assert_eq!(TruthTable::const_one(3).is_constant(), Some(true));
        assert_eq!(TruthTable::and(2).is_constant(), None);
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(TruthTable::and(2).to_string(), "tt2:8");
        assert_eq!(TruthTable::or(2).to_string(), "tt2:e");
        assert_eq!(TruthTable::const_one(0).to_string(), "tt0:1");
    }

    #[test]
    fn large_arity_words() {
        let tt = TruthTable::xor(10);
        assert_eq!(tt.num_rows(), 1024);
        assert_eq!(tt.count_ones(), 512);
        assert!(tt.eval_row(0b1));
        assert!(!tt.eval_row(0b11));
    }

    fn hash_of(tt: &TruthTable) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        tt.hash(&mut h);
        h.finish()
    }

    /// A fixed function of `k` inputs with no constant cofactor.
    fn sample(k: usize) -> TruthTable {
        TruthTable::from_fn(k, |r| (r.count_ones() + (r * 7 / 3) as u32) % 3 == 1)
    }

    #[test]
    fn word_and_wide_tables_at_the_boundary() {
        for k in [WORD_INPUTS, WORD_INPUTS + 1] {
            let tt = sample(k);
            assert_eq!(tt.num_inputs(), k);
            assert_eq!(tt.word().is_some(), k <= WORD_INPUTS, "k = {k}");
            let again = sample(k);
            assert_eq!(tt, again);
            assert_eq!(hash_of(&tt), hash_of(&again));
            let mut flipped = tt.clone();
            flipped.set(5, !tt.eval_row(5));
            assert_ne!(tt, flipped);
            flipped.set(5, tt.eval_row(5));
            assert_eq!(tt, flipped);
            assert_eq!(hash_of(&tt), hash_of(&flipped));
        }
        // Same on-set bits, different arity: different functions.
        assert_ne!(TruthTable::const_zero(6), TruthTable::const_zero(7));
        assert_eq!(TruthTable::const_one(6).word(), Some(u64::MAX));
        assert_eq!(TruthTable::const_one(7).count_ones(), 128);
    }

    #[test]
    fn cofactor_crosses_from_wide_to_word() {
        let tt = sample(7);
        for i in 0..7 {
            for value in [false, true] {
                let co = tt.cofactor(i, value);
                let expect = TruthTable::from_fn(6, |r| {
                    let low = r & ((1 << i) - 1);
                    let full = low | ((r >> i) << (i + 1)) | (usize::from(value) << i);
                    tt.eval_row(full)
                });
                assert!(co.word().is_some());
                assert_eq!(co, expect);
                assert_eq!(hash_of(&co), hash_of(&expect));
            }
        }
        assert_eq!(sample(6).cofactor(2, true).num_inputs(), 5);
    }

    #[test]
    fn eval3_planes_matches_eval3_at_6_and_7_inputs() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for k in [6, 7] {
            let tt = sample(k);
            // Each lane's input is 0, 1 or X (both planes set).
            let inputs: Vec<(u64, u64)> = (0..k)
                .map(|_| {
                    let (p0, p1) = (next(), next());
                    (p0 | !p1, p1)
                })
                .collect();
            let (out0, out1) = tt.eval3_planes(&inputs);
            for lane in 0..64 {
                let bits: Vec<Bit> = inputs
                    .iter()
                    .map(|&(p0, p1)| match ((p0 >> lane) & 1, (p1 >> lane) & 1) {
                        (1, 1) => Bit::X,
                        (_, 1) => Bit::One,
                        _ => Bit::Zero,
                    })
                    .collect();
                let got = match ((out0 >> lane) & 1, (out1 >> lane) & 1) {
                    (1, 1) => Bit::X,
                    (_, 1) => Bit::One,
                    _ => Bit::Zero,
                };
                assert_eq!(got, tt.eval3(&bits), "k = {k}, lane {lane}");
            }
        }
    }
}
