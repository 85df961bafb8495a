//! Typed attribute values carried by event messages and predicates.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A typed attribute value.
///
/// Event messages map attribute names to values; predicates compare an event
/// value against a constant value using an [`Operator`](crate::Operator).
///
/// Values of different variants never compare as ordered (e.g. a string is
/// never less than an integer); the only cross-variant comparison allowed is
/// between [`Value::Int`] and [`Value::Float`], which compares numerically.
/// This mirrors the loosely-typed attribute model used by content-based
/// publish/subscribe systems such as Siena and Rebeca.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean flag, e.g. `buy_now_available = true`.
    Bool(bool),
    /// A 64-bit signed integer, e.g. `bids = 12`.
    Int(i64),
    /// A 64-bit floating point number, e.g. `price = 17.50`.
    Float(f64),
    /// A UTF-8 string, e.g. `category = "books"`.
    ///
    /// Stored behind `Arc` so that cloning a string value — which happens on
    /// every subscription registration and event copy — is a reference-count
    /// bump instead of a heap allocation.
    Str(Arc<str>),
}

impl Value {
    /// Returns a short, human-readable name of the variant ("bool", "int",
    /// "float", or "string").
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
        }
    }

    /// Returns `true` if the two values belong to comparable types:
    /// identical variants, or the `Int`/`Float` numeric pair.
    pub fn comparable_with(&self, other: &Value) -> bool {
        matches!(
            (self, other),
            (Value::Bool(_), Value::Bool(_))
                | (Value::Int(_), Value::Int(_))
                | (Value::Float(_), Value::Float(_))
                | (Value::Int(_), Value::Float(_))
                | (Value::Float(_), Value::Int(_))
                | (Value::Str(_), Value::Str(_))
        )
    }

    /// Whether comparisons against this value through its `f64` image
    /// ([`as_f64`](Self::as_f64)) answer exactly as comparisons against the
    /// value itself: every value but an `Int` beyond ±2^53. There an int and
    /// its rounded image part ways — `Float(2^53)` equals `Int(2^53)` yet is
    /// not below `Int(2^53 + 1)` — and reasoning that chains comparisons
    /// through such a constant stops being transitive.
    pub fn is_f64_exact(&self) -> bool {
        !matches!(self, Value::Int(i) if i.unsigned_abs() >= 1 << 53)
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(&s[..]),
            _ => None,
        }
    }

    /// Boolean view of the value, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compares two values, returning `None` when the types are not
    /// comparable (see the type-level documentation).
    ///
    /// Float comparisons use IEEE total order semantics restricted to
    /// non-NaN values; comparing against NaN yields `None`.
    pub fn partial_cmp_value(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            _ => None,
        }
    }

    /// Approximate number of bytes this value occupies in a routing-table
    /// entry. Used by the memory heuristic (`Δ≈mem`).
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len() + std::mem::size_of::<usize>() * 3,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names() {
        assert_eq!(Value::Bool(true).type_name(), "bool");
        assert_eq!(Value::Int(1).type_name(), "int");
        assert_eq!(Value::Float(1.0).type_name(), "float");
        assert_eq!(Value::from("x").type_name(), "string");
    }

    #[test]
    fn numeric_cross_type_comparison() {
        let a = Value::Int(3);
        let b = Value::Float(3.5);
        assert_eq!(a.partial_cmp_value(&b), Some(Ordering::Less));
        assert_eq!(b.partial_cmp_value(&a), Some(Ordering::Greater));
        assert_eq!(
            Value::Int(4).partial_cmp_value(&Value::Float(4.0)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn incompatible_types_do_not_compare() {
        assert_eq!(Value::from("10").partial_cmp_value(&Value::Int(10)), None);
        assert_eq!(Value::Bool(true).partial_cmp_value(&Value::Int(1)), None);
        assert!(!Value::from("10").comparable_with(&Value::Int(10)));
        assert!(Value::Int(1).comparable_with(&Value::Float(1.0)));
    }

    #[test]
    fn nan_comparisons_are_none() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.partial_cmp_value(&Value::Float(1.0)), None);
        assert_eq!(Value::Int(1).partial_cmp_value(&nan), None);
    }

    #[test]
    fn string_ordering_is_lexicographic() {
        assert_eq!(
            Value::from("abc").partial_cmp_value(&Value::from("abd")),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::from("b").partial_cmp_value(&Value::from("a")),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("x").as_f64(), None);
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::Int(1).as_str(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(1).as_bool(), None);
    }

    #[test]
    fn size_estimates_are_sane() {
        assert_eq!(Value::Bool(true).size_bytes(), 1);
        assert_eq!(Value::Int(1).size_bytes(), 8);
        assert_eq!(Value::Float(1.0).size_bytes(), 8);
        assert!(Value::from("hello").size_bytes() >= 5);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from(String::from("s")), Value::Str("s".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::from("a").to_string(), "\"a\"");
    }
}
