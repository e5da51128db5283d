//! String interning for class, method and field names.
//!
//! Heap object classes and fields and the interpreter's call stack hold
//! dense [`Sym`] ids instead of owned strings; names are resolved back
//! to `&str` only at event-emission and error boundaries.
//! Ids are per-[`crate::Process`] and never recycled, so a `Sym` obtained
//! once stays valid for the life of the process.

use std::collections::HashMap;

/// An interned string: a dense index into the owning [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// A string interner mapping names to dense [`Sym`] ids.
///
/// Interning the same string twice returns the same id; resolution is a
/// bounds-checked vector index. The table only grows (symbols are never
/// freed), which is what makes `Sym`-keyed structures such as heap field
/// tables sound without invalidation.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    map: HashMap<String, u32>,
    strings: Vec<String>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `s`, returning its stable id.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&id) = self.map.get(s) {
            return Sym(id);
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.map.insert(s.to_string(), id);
        Sym(id)
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this interner.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Looks up an already-interned string without inserting.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.map.get(s).map(|&id| Sym(id))
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("com.a.Main");
        let b = i.intern("com.a.Other");
        assert_ne!(a, b);
        assert_eq!(i.intern("com.a.Main"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let names = ["onCreate", "f", "com.a.Main", "", "on\u{e9}"];
        let syms: Vec<Sym> = names.iter().map(|n| i.intern(n)).collect();
        for (name, sym) in names.iter().zip(&syms) {
            assert_eq!(i.resolve(*sym), *name);
        }
    }

    #[test]
    fn get_does_not_insert() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        let s = i.intern("x");
        assert_eq!(i.get("x"), Some(s));
        assert_eq!(i.len(), 1);
    }

    proptest! {
        /// Interning any sequence of names round-trips exactly, is
        /// idempotent, and assigns one dense id per distinct string.
        #[test]
        fn interner_round_trips(names in proptest::collection::vec(".{0,24}", 0..48)) {
            let mut interner = Interner::new();
            let syms: Vec<_> = names.iter().map(|n| interner.intern(n)).collect();
            for (name, sym) in names.iter().zip(&syms) {
                prop_assert_eq!(interner.resolve(*sym), name.as_str());
                prop_assert_eq!(interner.intern(name), *sym);
                prop_assert_eq!(interner.get(name), Some(*sym));
            }
            let distinct: std::collections::HashSet<&String> = names.iter().collect();
            prop_assert_eq!(interner.len(), distinct.len());
        }
    }
}
