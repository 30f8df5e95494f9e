//! Tuples over a table schema.

use crate::attrs::{Attr, AttrSet};
use crate::value::Value;
use std::fmt;

/// A tuple over a table schema: one [`Value`] per column.
///
/// Tuples do not carry their schema; a [`crate::table::Table`] pairs a
/// schema with a multiset of tuples and validates arity on insertion.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Creates a tuple from values.
    pub fn new(values: impl Into<Vec<Value>>) -> Self {
        Tuple(values.into().into_boxed_slice())
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The value in column `a` (the paper's `t[A]` / `t(A)`).
    #[inline]
    pub fn get(&self, a: Attr) -> &Value {
        &self.0[a.index()]
    }

    /// Mutable access to the value in column `a`.
    #[inline]
    pub fn get_mut(&mut self, a: Attr) -> &mut Value {
        &mut self.0[a.index()]
    }

    /// All values in column order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// The values in column order, moved out of the tuple.
    pub fn into_values(self) -> Vec<Value> {
        self.0.into_vec()
    }

    /// Whether the tuple is `X`-total, i.e. `t[A] ≠ ⊥` for all `A ∈ X`.
    pub fn is_total_on(&self, x: AttrSet) -> bool {
        x.iter().all(|a| self.get(a).is_total())
    }

    /// Whether the tuple is total (no nulls at all).
    pub fn is_total(&self) -> bool {
        self.0.iter().all(Value::is_total)
    }

    /// The attributes on which the tuple carries the null marker.
    pub fn null_attrs(&self) -> AttrSet {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_null())
            .map(|(i, _)| Attr::from(i))
            .collect()
    }

    /// The restriction `t[X]` as a fresh tuple over the projected schema
    /// (columns of `x` in ascending order).
    pub fn project(&self, x: AttrSet) -> Tuple {
        Tuple(x.iter().map(|a| self.get(a).clone()).collect())
    }

    /// Syntactic equality on `X`: `t[X] = t'[X]`, where `⊥ = ⊥`.
    pub fn eq_on(&self, other: &Tuple, x: AttrSet) -> bool {
        x.iter().all(|a| self.get(a) == other.get(a))
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Tuple {
        Tuple::new(v)
    }
}

impl std::ops::Index<Attr> for Tuple {
    type Output = Value;
    fn index(&self, a: Attr) -> &Value {
        self.get(a)
    }
}

/// Builds a tuple from heterogeneous literals: `tuple![1, "x", null]`.
///
/// `null` (the bare identifier) denotes the null marker.
#[macro_export]
macro_rules! tuple {
    (@val null) => { $crate::value::Value::Null };
    (@val $v:expr) => { $crate::value::Value::from($v) };
    ($($v:tt),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$( $crate::tuple!(@val $v) ),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrSet;

    fn t() -> Tuple {
        tuple![5299401i64, "Fitbit Surge", null, 240i64]
    }

    #[test]
    fn macro_and_accessors() {
        let t = t();
        assert_eq!(t.arity(), 4);
        assert_eq!(t.get(Attr(0)), &Value::Int(5299401));
        assert_eq!(t.get(Attr(2)), &Value::Null);
        assert_eq!(t[Attr(1)], Value::str("Fitbit Surge"));
    }

    #[test]
    fn totality() {
        let t = t();
        assert!(!t.is_total());
        assert!(t.is_total_on(AttrSet::from_indices([0, 1, 3])));
        assert!(!t.is_total_on(AttrSet::from_indices([2])));
        assert_eq!(t.null_attrs(), AttrSet::from_indices([2]));
        assert!(tuple![1i64, 2i64].is_total());
    }

    #[test]
    fn projection_keeps_order() {
        let t = t();
        let p = t.project(AttrSet::from_indices([3, 0]));
        assert_eq!(p, tuple![5299401i64, 240i64]);
    }

    #[test]
    fn eq_on_with_nulls() {
        let a = tuple![1i64, null, 3i64];
        let b = tuple![1i64, null, 4i64];
        assert!(a.eq_on(&b, AttrSet::from_indices([0, 1])));
        assert!(!a.eq_on(&b, AttrSet::from_indices([0, 2])));
        // ⊥ = ⊥ counts as equality (Example 2 of the paper).
        assert!(a.eq_on(&b, AttrSet::from_indices([1])));
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1i64, null].to_string(), "(1, NULL)");
    }
}
