//! A compact name interner.
//!
//! Every distinct name is stored exactly once in a single append-only
//! byte arena, and the rest of the program passes 4-byte [`Symbol`]s
//! around. The BLIF front-end interns every signal, model and cell name
//! it reads, and a [`Circuit`](crate::Circuit) keeps its node names in
//! one: symbol `i` is node `i`'s name.
//!
//! Three flat allocations hold everything: the arena, one end offset per
//! symbol, and an open-addressed hash index of symbol ids. No name owns
//! a `String` or a collision list of its own.

use std::collections::TryReserveError;

/// Handle to an interned name (its insertion index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The symbol's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Marks a free slot of the hash index.
const EMPTY: u32 = u32::MAX;

/// Append-only string arena with hash-consed lookup.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    arena: String,
    /// End offset in `arena` of each symbol's text; a symbol starts
    /// where the previous one ends.
    ends: Vec<u32>,
    /// Open-addressed index: a symbol id per slot or [`EMPTY`]. Its
    /// length is zero or a power of two, and at most 3/4 of it is used.
    /// Collisions probe triangularly and compare arena text, so no hash
    /// is stored.
    index: Vec<u32>,
}

/// Interners are equal when they hold the same names in the same order;
/// the hash index is derived from those and may differ in size.
impl PartialEq for Interner {
    fn eq(&self, other: &Interner) -> bool {
        self.ends == other.ends && self.arena == other.arena
    }
}

impl Eq for Interner {}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Fold the well-mixed high half into the low bits the mask keeps.
    h ^ (h >> 32)
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `name`, returning its (stable) symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if (self.ends.len() + 1) * 4 > self.index.len() * 3 {
            self.grow_index();
        }
        let slot = match self.probe(name) {
            Ok(sym) => return sym,
            Err(slot) => slot,
        };
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("< 2^32 - 1 names");
        self.arena.push_str(name);
        self.ends
            .push(u32::try_from(self.arena.len()).expect("arena < 4 GiB"));
        self.index[slot] = id;
        Symbol(id)
    }

    /// The symbol of `name`, if it has been interned.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        if self.index.is_empty() {
            return None;
        }
        self.probe(name).ok()
    }

    /// `Ok(symbol)` when `name` is present, else `Err(slot)`: the free
    /// slot where it belongs. The index must be non-empty.
    fn probe(&self, name: &str) -> Result<Symbol, usize> {
        let mask = self.index.len() - 1;
        let mut slot = fnv1a(name) as usize & mask;
        let mut step = 0;
        loop {
            match self.index[slot] {
                EMPTY => return Err(slot),
                id if self.resolve(Symbol(id)) == name => return Ok(Symbol(id)),
                _ => {
                    step += 1;
                    slot = (slot + step) & mask;
                }
            }
        }
    }

    /// Makes room for `additional` more names of `bytes` bytes in all
    /// without growing the hash index on the way.
    ///
    /// # Errors
    ///
    /// Returns the allocator's refusal of the text, the offset table or
    /// the index.
    pub fn reserve(&mut self, additional: usize, bytes: usize) -> Result<(), TryReserveError> {
        self.arena.try_reserve(bytes)?;
        self.ends.try_reserve(additional)?;
        let names = self.ends.len() + additional;
        if names * 4 > self.index.len() * 3 {
            let len = (names * 4 / 3 + 1).next_power_of_two().max(16);
            let mut index = Vec::new();
            index.try_reserve_exact(len)?;
            index.resize(len, EMPTY);
            self.rebuild_index(index);
        }
        Ok(())
    }

    /// Doubles the hash index (16 slots at first) and reinserts every
    /// symbol.
    fn grow_index(&mut self) {
        self.rebuild_index(vec![EMPTY; (self.index.len() * 2).max(16)]);
    }

    /// Makes `index`, all empty and a power of two long, the hash index
    /// and reinserts every symbol.
    fn rebuild_index(&mut self, index: Vec<u32>) {
        self.index = index;
        for id in 0..self.ends.len() as u32 {
            let Err(slot) = self.probe(self.resolve(Symbol(id))) else {
                unreachable!("interned names are distinct");
            };
            self.index[slot] = id;
        }
    }

    /// The text of an interned symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not issued by this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start as usize..self.ends[i] as usize]
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no name has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Releases spare capacity of the arena and the offset table (the
    /// hash index keeps its size).
    pub fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_resolves() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        let a2 = i.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
        assert_eq!(i.len(), 2);
        // Interning a name twice stores its text once.
        assert_eq!(i.arena, "alphabeta");
    }

    #[test]
    fn many_names_stay_distinct() {
        let mut i = Interner::new();
        let syms: Vec<Symbol> = (0..10_000).map(|n| i.intern(&format!("s{n}"))).collect();
        for (n, &s) in syms.iter().enumerate() {
            assert_eq!(s, Symbol(n as u32));
            assert_eq!(i.resolve(s), format!("s{n}"));
            assert_eq!(i.get(&format!("s{n}")), Some(s));
        }
        assert_eq!(i.len(), 10_000);
        assert_eq!(i.get("s10000"), None);
    }

    #[test]
    fn empty_names_and_equality_ignore_the_index() {
        let mut a = Interner::new();
        assert_eq!(a.get(""), None);
        let e = a.intern("");
        assert_eq!(a.resolve(e), "");
        assert_eq!(a.intern(""), e);
        let mut b = a.clone();
        for n in 0..100 {
            b.intern(&n.to_string());
        }
        let mut c = Interner::new();
        c.intern("");
        for n in 0..100 {
            c.intern(&n.to_string());
        }
        c.shrink_to_fit();
        assert_eq!(b, c);
        assert_ne!(a, b);
    }
}
