//! Attribute values carried by tuples.
//!
//! Borealis tuples are flat records `(a1, ..., am)`. DPC requires operators
//! to be *deterministic* (§2.1), which in turn requires a total, canonical
//! order over attribute values so that SUnion can serialize tuples across
//! streams identically at every replica. [`Value`] therefore implements
//! `Eq`, `Ord`, and `Hash` with explicit float semantics (total order via
//! `f64::total_cmp`, hashing via bit patterns) instead of IEEE partial
//! comparisons.
//!
//! A tuple's attribute list is a [`Values`]: up to two values live inline,
//! wider rows share one `Arc<[Value]>`, so cloning a tuple never allocates.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A single attribute value (16 bytes: strings sit behind a thin pointer).
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float with total ordering.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// Immutable shared string: cloning bumps a reference count. Equal
    /// strings are not deduplicated.
    Str(Arc<String>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Arc::new(s.into()))
    }

    /// Interprets the value as an integer if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Interprets the value as a float, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Interprets the value as a boolean if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Interprets the value as a string if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Rank used to order values of different types; gives `Value` a total
    /// order across type boundaries (Int < Float < Bool < Str).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Float(_) => 1,
            Value::Bool(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            // Bit-level equality keeps Eq reflexive even for NaN.
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Int(v) => v.hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Bool(v) => v.hash(state),
            Value::Str(v) => v.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}

/// A tuple's attribute list `a1, ..., am`, read as a `[Value]` slice.
///
/// Rows of up to two attributes (every source row and most operator
/// outputs) are stored inline; wider rows share one `Arc<[Value]>`. Either
/// way a clone is a copy plus at most a reference-count bump, never a heap
/// allocation. Equality and `Debug` are those of the slice.
#[derive(Clone, Default)]
pub struct Values(Repr);

#[derive(Clone, Default)]
enum Repr {
    #[default]
    Empty,
    One(Value),
    Two([Value; 2]),
    Shared(Arc<[Value]>),
}

impl Values {
    /// No attributes.
    pub fn new() -> Values {
        Values(Repr::Empty)
    }

    /// The attributes as a slice.
    pub fn as_slice(&self) -> &[Value] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(v) => std::slice::from_ref(v),
            Repr::Two(vs) => vs,
            Repr::Shared(vs) => vs,
        }
    }

    /// Builds a row of `n` values, the `i`-th from `next(i)`, stopping at
    /// the first error. Rows of up to two values never touch the heap.
    #[inline]
    pub fn try_from_fn<E>(
        n: usize,
        mut next: impl FnMut(usize) -> Result<Value, E>,
    ) -> Result<Values, E> {
        Ok(Values(match n {
            0 => Repr::Empty,
            1 => Repr::One(next(0)?),
            2 => {
                let a = next(0)?;
                Repr::Two([a, next(1)?])
            }
            _ => Repr::Shared((0..n).map(next).collect::<Result<_, E>>()?),
        }))
    }

    /// True when the row is wide enough to live in a shared allocation
    /// (more than two attributes).
    pub fn is_shared(&self) -> bool {
        matches!(self.0, Repr::Shared(_))
    }
}

impl Deref for Values {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        self.as_slice()
    }
}

impl FromIterator<Value> for Values {
    /// Collects inline when the iterator yields at most two values;
    /// otherwise into one shared allocation (a single allocation when the
    /// iterator's length is exact, as for slices and arrays).
    #[inline]
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Values {
        let mut it = iter.into_iter();
        let Some(a) = it.next() else {
            return Values(Repr::Empty);
        };
        let Some(b) = it.next() else {
            return Values(Repr::One(a));
        };
        let Some(c) = it.next() else {
            return Values(Repr::Two([a, b]));
        };
        Values(Repr::Shared([a, b, c].into_iter().chain(it).collect()))
    }
}

impl From<Vec<Value>> for Values {
    fn from(v: Vec<Value>) -> Values {
        if v.len() > 2 {
            Values(Repr::Shared(v.into()))
        } else {
            v.into_iter().collect()
        }
    }
}

impl<const N: usize> From<[Value; N]> for Values {
    fn from(v: [Value; N]) -> Values {
        v.into_iter().collect()
    }
}

impl PartialEq for Values {
    fn eq(&self, other: &Values) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Values {}

impl PartialEq<Vec<Value>> for Values {
    fn eq(&self, other: &Vec<Value>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl fmt::Debug for Values {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn total_order_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.0) < Value::Float(1.5));
        assert!(Value::Bool(false) < Value::Bool(true));
        assert!(Value::str("a") < Value::str("b"));
    }

    #[test]
    fn total_order_across_types_is_consistent() {
        let vals = [
            Value::Int(0),
            Value::Float(0.0),
            Value::Bool(false),
            Value::str(""),
        ];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn nan_is_equal_to_itself_and_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        // NaN sorts after all finite floats under total_cmp.
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn hash_matches_equality() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Int(7)));
        assert_eq!(hash_of(&Value::Float(2.5)), hash_of(&Value::Float(2.5)));
        assert_ne!(hash_of(&Value::Int(0)), hash_of(&Value::Bool(false)));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::str("x").as_int(), None);
    }
}
