//! Offline stand-in for the `serde` facade.
//!
//! The build environment for this workspace has no network access, so the
//! real serde cannot be vendored. This shim keeps the workspace's source
//! compatible with serde's *surface* — `#[derive(Serialize, Deserialize)]`
//! plus `serde_json::{to_string, to_string_pretty, from_str}` — while
//! implementing only what the workspace needs underneath: a self-describing
//! in-memory [`Value`] tree that the sibling `serde_json` shim renders to
//! and parses from JSON text.
//!
//! Fidelity notes (all visible to round-trip tests, none violated by them):
//!
//! * integers keep full `u64`/`i64` precision (they are not squeezed
//!   through `f64`);
//! * `f64` uses Rust's shortest round-trip `Display` formatting;
//! * non-finite floats serialize as `null` (matching serde_json's
//!   lossy-float behaviour closely enough for metrics structs);
//! * enums use serde's externally-tagged representation.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing value tree — the meeting point of `Serialize` and
/// `Deserialize`, mirroring the JSON data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer (kept exact; never coerced through `f64`).
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object with insertion-ordered keys (field order is preserved so a
    /// struct serializes deterministically).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Views this value as an object field list.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Views this value as an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// A short name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::U64(_) | Value::I64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// A [`Value`] serializes as itself — callers holding arbitrary JSON
/// (e.g. a trace reader) can pass the tree straight through.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// "expected X, found Y while reading T".
    pub fn expected(what: &str, found: &Value, ty: &str) -> Self {
        DeError(format!(
            "expected {what}, found {} while reading {ty}",
            found.kind()
        ))
    }

    /// Free-form error.
    pub fn msg(m: impl Into<String>) -> Self {
        DeError(m.into())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Looks up a struct field by name in an object's field list.
pub fn get_field<'v>(fields: &'v [(String, Value)], name: &str) -> Result<&'v Value, DeError> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError(format!("missing field `{name}`")))
}

/// Rejects an object whose keys are not all among `known` — what a struct
/// deriving `Deserialize` with `#[serde(deny_unknown_fields)]` checks.
pub fn deny_unknown_fields(fields: &[(String, Value)], known: &[&str]) -> Result<(), DeError> {
    match fields.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        Some((k, _)) => {
            let expected: Vec<String> = known.iter().map(|f| format!("`{f}`")).collect();
            Err(DeError(format!(
                "unknown field `{k}`, expected one of {}",
                expected.join(", ")
            )))
        }
        None => Ok(()),
    }
}

/// Types that can render themselves into a [`Value`].
pub trait Serialize {
    /// Converts `self` into the self-describing value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from the value tree.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(u64::from(*self))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t)))),
                    other => Err(DeError::expected("unsigned integer", other, stringify!($t))),
                }
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::U64(*self as u64)
    }
}

impl Deserialize for usize {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        u64::from_value(v).and_then(|n| {
            usize::try_from(n).map_err(|_| DeError(format!("{n} out of range for usize")))
        })
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = i64::from(*self);
                if n < 0 { Value::I64(n) } else { Value::U64(n as u64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let wide: i64 = match v {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| DeError(format!("{n} out of range for {}", stringify!($t))))?,
                    other => return Err(DeError::expected("integer", other, stringify!($t))),
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64);

impl Serialize for isize {
    fn to_value(&self) -> Value {
        (*self as i64).to_value()
    }
}

impl Deserialize for isize {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        i64::from_value(v).and_then(|n| {
            isize::try_from(n).map_err(|_| DeError(format!("{n} out of range for isize")))
        })
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::F64(*self)
        } else {
            Value::Null
        }
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::F64(x) => Ok(*x),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            Value::Null => Ok(f64::NAN),
            other => Err(DeError::expected("number", other, "f64")),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        f64::from(*self).to_value()
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other, "bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other, "String")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = String::from_value(v)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::msg("expected single-character string for char")),
        }
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other, "Vec")),
        }
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for VecDeque<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::from_value(v)
            .map(Vec::into_iter)
            .map(Iterator::collect)
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Vec::from_value(v)
            .map(Vec::into_iter)
            .map(Iterator::collect)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| DeError(format!("expected array of length {N}, found {len}")))
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                const LEN: usize = [$($idx),+].len();
                let items = v
                    .as_array()
                    .ok_or_else(|| DeError::expected("array", v, "tuple"))?;
                if items.len() != LEN {
                    return Err(DeError(format!(
                        "expected tuple of length {LEN}, found {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )+};
}

impl_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
);

impl<K: fmt::Display + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", v, "BTreeMap"))?;
        fields
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}
