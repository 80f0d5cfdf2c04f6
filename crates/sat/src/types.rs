//! Variables and literals.

use std::fmt;

/// A propositional variable, numbered from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The largest variable index: a [`Lit`] packs `2 * index + sign`
    /// into a `u32`.
    pub(crate) const MAX_INDEX: usize = (u32::MAX >> 1) as usize;

    /// The variable's 0-based index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a variable from a 0-based index.
    ///
    /// # Panics
    /// Panics if `i` exceeds `2^31 - 1`: its literals would alias a
    /// smaller variable's.
    #[inline]
    pub fn from_index(i: usize) -> Var {
        assert!(i <= Var::MAX_INDEX, "variable index overflow");
        Var(i as u32)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `2 * var + sign` where `sign == 1` means negated, so a
/// literal doubles as an index into watcher lists.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// `v` if `sign` is true, else `¬v`.
    #[inline]
    pub fn with_sign(v: Var, sign: bool) -> Lit {
        if sign {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for a positive literal.
    #[inline]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// Index usable for watcher/assignment tables (0..2*nvars).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}v{}",
            if self.is_pos() { "" } else { "¬" },
            self.0 >> 1
        )
    }
}

impl fmt::Display for Lit {
    /// DIMACS-style: 1-based, negative when negated.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = (self.0 >> 1) as i64 + 1;
        write!(f, "{}", if self.is_pos() { v } else { -v })
    }
}

/// Three-valued assignment state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LBool {
    True,
    False,
    Undef,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var::from_index(3);
        let p = Lit::pos(v);
        let n = Lit::neg(v);
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_pos());
        assert!(!n.is_pos());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(p.index(), 6);
        assert_eq!(n.index(), 7);
    }

    #[test]
    fn with_sign() {
        let v = Var::from_index(0);
        assert_eq!(Lit::with_sign(v, true), Lit::pos(v));
        assert_eq!(Lit::with_sign(v, false), Lit::neg(v));
    }

    #[test]
    fn dimacs_display() {
        let v = Var::from_index(4);
        assert_eq!(format!("{}", Lit::pos(v)), "5");
        assert_eq!(format!("{}", Lit::neg(v)), "-5");
    }
}
