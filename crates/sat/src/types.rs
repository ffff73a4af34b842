//! Core SAT identifier types: variables, literals, and ternary values.

use std::fmt;
use std::ops::Not;

/// A propositional variable, numbered from zero.
///
/// # Examples
///
/// ```
/// use beer_sat::Var;
/// let v = Var::new(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(u32);

impl Var {
    /// Creates a variable with the given zero-based index.
    pub fn new(index: usize) -> Self {
        Var(index as u32)
    }

    /// Zero-based index of the variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Positive literal of the variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// Negative literal of the variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }

    /// Literal of this variable with the given polarity.
    #[inline]
    pub fn lit(self, positive: bool) -> Lit {
        Lit::new(self, positive)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `2·var + sign` where `sign = 1` means *negated*; this gives a
/// dense index space used directly for watch lists.
///
/// # Examples
///
/// ```
/// use beer_sat::{Lit, Var};
/// let x = Var::new(0).positive();
/// assert_eq!(!x, Var::new(0).negative());
/// assert_eq!((!x).var(), x.var());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal for `var`, positive if `positive` is true.
    #[inline]
    pub fn new(var: Var, positive: bool) -> Self {
        Lit(var.0 << 1 | u32::from(!positive))
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` for a positive (non-negated) literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Dense code usable as an array index (`2·var + sign`).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Inverse of [`Lit::code`].
    #[inline]
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }
}

impl Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.var().index())
        } else {
            write!(f, "¬v{}", self.var().index())
        }
    }
}

/// A ternary truth value: true, false, or unassigned.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

impl LBool {
    /// Converts from `bool`.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// `Some(bool)` if assigned, else `None`.
    #[inline]
    pub fn to_option(self) -> Option<bool> {
        match self {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Negation; `Undef` stays `Undef`.
    #[inline]
    pub fn negate(self) -> Self {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_roundtrip() {
        let v = Var::new(5);
        let pos = v.positive();
        let neg = v.negative();
        assert_eq!(pos.var(), v);
        assert_eq!(neg.var(), v);
        assert!(pos.is_positive());
        assert!(!neg.is_positive());
        assert_eq!(!pos, neg);
        assert_eq!(!!pos, pos);
        assert_eq!(Lit::from_code(pos.code()), pos);
    }

    #[test]
    fn dense_codes_are_adjacent() {
        let v = Var::new(3);
        assert_eq!(v.positive().code(), 6);
        assert_eq!(v.negative().code(), 7);
    }

    #[test]
    fn lbool_algebra() {
        assert_eq!(LBool::from_bool(true), LBool::True);
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert_eq!(LBool::False.to_option(), Some(false));
        assert_eq!(LBool::Undef.to_option(), None);
    }
}
