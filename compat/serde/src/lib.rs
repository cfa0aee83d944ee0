//! Offline stand-in for `serde`.
//!
//! The real serde crates live on crates.io, which this repository's build
//! environment cannot reach (see README § Offline builds). This shim keeps
//! the workspace's source unchanged — `use serde::{Deserialize,
//! Serialize}` and `#[derive(Serialize, Deserialize)]` work as before —
//! by replacing serde's visitor architecture with a simple value tree:
//! serialization produces a [`Value`], deserialization consumes one, and
//! the sibling `serde_json` shim renders/parses the JSON text.
//!
//! Scope: exactly what this workspace uses. Structs with named fields,
//! enums with unit/tuple/struct variants (externally tagged, like serde's
//! default), the std types that appear in those containers, and nothing
//! else.

pub use serde_derive::{Deserialize, Serialize};

/// A parsed/serializable JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part (serialized without `.0`).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in insertion order.
    Object(Vec<(String, Value)>),
}

/// (De)serialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error with the given message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

static NULL: Value = Value::Null;

impl Value {
    /// Object member by name; `Null` when absent or not an object (the
    /// caller's typed `from_value` then reports the real error, and
    /// `Option` fields treat absence as `None`, like serde).
    pub fn field(&self, name: &str) -> &Value {
        self.get(name).unwrap_or(&NULL)
    }

    /// Object member by name, if present.
    pub fn get(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element by position; `Null` out of range.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// Decodes an externally-tagged enum: either a bare string (unit
    /// variant) or a single-entry object (data variant).
    pub fn variant(&self) -> Result<(&str, &Value), Error> {
        match self {
            Value::String(s) => Ok((s.as_str(), &NULL)),
            Value::Object(entries) if entries.len() == 1 => {
                Ok((entries[0].0.as_str(), &entries[0].1))
            }
            other => Err(Error::msg(format!("expected enum, found {other:?}"))),
        }
    }

    /// The value as f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::Float(x) => Some(x),
            _ => None,
        }
    }

    /// The value as u64, if a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(n) if n >= 0 => Some(n as u64),
            Value::Float(x) if x >= 0.0 && x.fract() == 0.0 => Some(x as u64),
            _ => None,
        }
    }

    /// The value as i64, if integral.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(n) => Some(n),
            Value::Float(x) if x.fract() == 0.0 => Some(x as i64),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object entries.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, name: &str) -> &Value {
        self.field(name)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        Value::index(self, i)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<f64> for Value {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<i64> for Value {
    fn eq(&self, other: &i64) -> bool {
        self.as_i64() == Some(*other)
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

/// Serialization into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` to a [`Value`].
    fn to_value(&self) -> Value;
}

/// Deserialization out of a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---- Serialize impls for std types used in this workspace ----

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize, u8, u16, u32, usize);

impl Serialize for u64 {
    fn to_value(&self) -> Value {
        if *self <= i64::MAX as u64 {
            Value::Int(*self as i64)
        } else {
            Value::Float(*self as f64)
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(x) => x.to_value(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|x| x.to_value()).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|x| x.to_value()).collect())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_value(&self) -> Value {
        Value::Array(vec![
            self.0.to_value(),
            self.1.to_value(),
            self.2.to_value(),
        ])
    }
}

// ---- Deserialize impls ----

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_bool()
            .ok_or_else(|| Error::msg(format!("expected bool, found {v:?}")))
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| Error::msg(format!("expected integer, found {v:?}")))?;
                <$t>::try_from(n).map_err(|_| {
                    Error::msg(format!("{n} out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(f64::from_value(v)? as f32)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64()
            .ok_or_else(|| Error::msg(format!("expected number, found {v:?}")))
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::msg(format!("expected string, found {v:?}")))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::msg(format!("expected array, found {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v
            .as_array()
            .ok_or_else(|| Error::msg(format!("expected 2-tuple, found {v:?}")))?;
        if items.len() != 2 {
            return Err(Error::msg(format!(
                "expected 2 elements, found {}",
                items.len()
            )));
        }
        Ok((A::from_value(&items[0])?, B::from_value(&items[1])?))
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v
            .as_array()
            .ok_or_else(|| Error::msg(format!("expected 3-tuple, found {v:?}")))?;
        if items.len() != 3 {
            return Err(Error::msg(format!(
                "expected 3 elements, found {}",
                items.len()
            )));
        }
        Ok((
            A::from_value(&items[0])?,
            B::from_value(&items[1])?,
            C::from_value(&items[2])?,
        ))
    }
}
