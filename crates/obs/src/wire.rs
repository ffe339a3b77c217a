//! Typed wire records: the one mapping between this crate's data types and
//! their JSON form.
//!
//! A type's fields are declared once, in a `wire_record!` struct
//! declaration (or, for run events, in the `run_events!` table of
//! [`crate::events`]). That declaration generates the encoder
//! ([`Record::write`]), the decoder and schema check ([`Record::read`]) and
//! the field list the documentation is rendered from ([`Record::spec`]),
//! so the three cannot drift apart.
//!
//! * [`Wire`] — a value with a JSON form (numbers, strings, arrays,
//!   name-keyed maps, nested records).
//! * [`Field`] — one named member of an enclosing object. Every [`Wire`]
//!   type is a required field, `Option<T>` an optional one (omitted when
//!   `None`), and a *flattened* record contributes all of its own members
//!   to the enclosing object (the payload of `metrics`, `explain_report`
//!   and `resource_report` events).

use crate::json::Json;
use std::fmt;
use std::time::Duration;

/// The JSON type of a wire value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireType {
    /// A non-negative integer.
    U64,
    /// Any number.
    F64,
    /// A string.
    Str,
    /// A boolean.
    Bool,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

impl WireType {
    /// The short name used in the documented schema table.
    pub fn short(self) -> &'static str {
        match self {
            WireType::U64 => "u64",
            WireType::F64 => "f64",
            WireType::Str => "str",
            WireType::Bool => "bool",
            WireType::Arr => "array",
            WireType::Obj => "object",
        }
    }

    /// The human-readable name used in schema errors.
    pub fn name(self) -> &'static str {
        match self {
            WireType::U64 => "non-negative integer",
            WireType::F64 => "number",
            WireType::Str => "string",
            WireType::Bool => "boolean",
            WireType::Arr => "array",
            WireType::Obj => "object",
        }
    }
}

/// One declared member of a wire object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// The member name.
    pub name: &'static str,
    /// Its JSON type.
    pub ty: WireType,
    /// `true` when the member may be absent.
    pub optional: bool,
}

/// Why a wire value failed to decode. The path locates the offending
/// member (`edges[1].a`, `components.rtree.var000`); it is empty for the
/// value itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// A required member is absent.
    Missing(String),
    /// A member is present with the wrong JSON type.
    WrongType(String, WireType),
}

impl FieldError {
    /// The error of a value that is not a `T`.
    pub(crate) fn wrong<T: Wire>() -> FieldError {
        FieldError::WrongType(String::new(), T::TYPE)
    }

    /// Re-roots the error's path under `step` (a member name or `[i]`).
    fn under(self, step: &str) -> FieldError {
        let join = |path: String| match path.chars().next() {
            None => step.to_string(),
            Some('[') => format!("{step}{path}"),
            Some(_) => format!("{step}.{path}"),
        };
        match self {
            FieldError::Missing(path) => FieldError::Missing(join(path)),
            FieldError::WrongType(path, ty) => FieldError::WrongType(join(path), ty),
        }
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::Missing(field) => write!(f, "missing required field {field:?}"),
            FieldError::WrongType(field, ty) => {
                write!(f, "field {field:?} must be a {}", ty.name())
            }
        }
    }
}

/// A value with a JSON form.
pub trait Wire: Sized {
    /// The JSON type of the encoded value.
    const TYPE: WireType;
    /// Encodes the value.
    fn to_json(&self) -> Json;
    /// Decodes a value.
    fn from_json(value: &Json) -> Result<Self, FieldError>;
}

/// A named member — or, for a flattened record, a group of members — of
/// an enclosing JSON object.
pub trait Field: Sized {
    /// Appends the member(s) to `out` (nothing for an absent optional).
    fn put(&self, name: &'static str, out: &mut Vec<(String, Json)>);
    /// Reads the member(s) from the object `obj`.
    fn take(obj: &Json, name: &'static str) -> Result<Self, FieldError>;
    /// Declares the member(s).
    fn spec(name: &'static str, out: &mut Vec<FieldSpec>);
}

impl<T: Wire> Field for T {
    fn put(&self, name: &'static str, out: &mut Vec<(String, Json)>) {
        out.push((name.to_string(), self.to_json()));
    }
    fn take(obj: &Json, name: &'static str) -> Result<Self, FieldError> {
        let value = obj
            .get(name)
            .ok_or_else(|| FieldError::Missing(name.to_string()))?;
        T::from_json(value).map_err(|e| e.under(name))
    }
    fn spec(name: &'static str, out: &mut Vec<FieldSpec>) {
        out.push(FieldSpec {
            name,
            ty: T::TYPE,
            optional: false,
        });
    }
}

impl<T: Wire> Field for Option<T> {
    fn put(&self, name: &'static str, out: &mut Vec<(String, Json)>) {
        if let Some(value) = self {
            value.put(name, out);
        }
    }
    fn take(obj: &Json, name: &'static str) -> Result<Self, FieldError> {
        match obj.get(name) {
            None => Ok(None),
            Some(_) => T::take(obj, name).map(Some),
        }
    }
    fn spec(name: &'static str, out: &mut Vec<FieldSpec>) {
        T::spec(name, out);
        if let Some(last) = out.last_mut() {
            last.optional = true;
        }
    }
}

/// The members of a struct declared with `wire_record!`.
pub trait Record: Sized {
    /// Appends every member, in declaration order.
    fn write(&self, out: &mut Vec<(String, Json)>);
    /// Reads every member from the object `obj` (extra members ignored).
    fn read(obj: &Json) -> Result<Self, FieldError>;
    /// Declares every member, in declaration order.
    fn spec(out: &mut Vec<FieldSpec>);
}

/// Declares a struct together with its wire form.
///
/// The first token picks how the record sits in an enclosing object:
/// `nested` records are one object-valued member (the struct implements
/// [`Wire`]); `flat` records spill their members into the enclosing
/// object (the struct implements [`Field`] directly). Each member is
/// encoded under its Rust name unless renamed with `as "wire_name"`.
macro_rules! wire_record {
    (
        $mode:ident
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty $(as $wire:literal)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::wire::Record for $name {
            fn write(&self, out: &mut Vec<(String, $crate::json::Json)>) {
                $( $crate::wire::Field::put(
                    &self.$field, $crate::wire::wire_record!(@name $field $($wire)?), out,
                ); )*
            }
            fn read(obj: &$crate::json::Json) -> Result<Self, $crate::wire::FieldError> {
                Ok($name {
                    $( $field: $crate::wire::Field::take(
                        obj, $crate::wire::wire_record!(@name $field $($wire)?),
                    )?, )*
                })
            }
            fn spec(out: &mut Vec<$crate::wire::FieldSpec>) {
                $( <$ty as $crate::wire::Field>::spec(
                    $crate::wire::wire_record!(@name $field $($wire)?), out,
                ); )*
            }
        }

        $crate::wire::wire_record!(@$mode $name);
    };
    (@name $field:ident) => { stringify!($field) };
    (@name $field:ident $wire:literal) => { $wire };
    (@nested $name:ident) => {
        impl $crate::wire::Wire for $name {
            const TYPE: $crate::wire::WireType = $crate::wire::WireType::Obj;
            fn to_json(&self) -> $crate::json::Json {
                let mut out = Vec::new();
                $crate::wire::Record::write(self, &mut out);
                $crate::json::Json::Obj(out)
            }
            fn from_json(
                value: &$crate::json::Json,
            ) -> Result<Self, $crate::wire::FieldError> {
                match value.as_object() {
                    Some(_) => $crate::wire::Record::read(value),
                    None => Err($crate::wire::FieldError::wrong::<Self>()),
                }
            }
        }
    };
    (@flat $name:ident) => {
        impl $crate::wire::Field for $name {
            fn put(&self, _: &'static str, out: &mut Vec<(String, $crate::json::Json)>) {
                $crate::wire::Record::write(self, out);
            }
            fn take(
                obj: &$crate::json::Json,
                _: &'static str,
            ) -> Result<Self, $crate::wire::FieldError> {
                $crate::wire::Record::read(obj)
            }
            fn spec(_: &'static str, out: &mut Vec<$crate::wire::FieldSpec>) {
                <$name as $crate::wire::Record>::spec(out);
            }
        }
    };
}
pub(crate) use wire_record;

impl Wire for u64 {
    const TYPE: WireType = WireType::U64;
    fn to_json(&self) -> Json {
        Json::U64(*self)
    }
    fn from_json(value: &Json) -> Result<Self, FieldError> {
        value.as_u64().ok_or_else(FieldError::wrong::<Self>)
    }
}

impl Wire for f64 {
    const TYPE: WireType = WireType::F64;
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(value: &Json) -> Result<Self, FieldError> {
        value.as_f64().ok_or_else(FieldError::wrong::<Self>)
    }
}

impl Wire for bool {
    const TYPE: WireType = WireType::Bool;
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(value: &Json) -> Result<Self, FieldError> {
        value.as_bool().ok_or_else(FieldError::wrong::<Self>)
    }
}

impl Wire for String {
    const TYPE: WireType = WireType::Str;
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(value: &Json) -> Result<Self, FieldError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(FieldError::wrong::<Self>)
    }
}

/// A duration travels as (fractional) seconds; negative values clamp to
/// zero.
impl Wire for Duration {
    const TYPE: WireType = WireType::F64;
    fn to_json(&self) -> Json {
        Json::Num(self.as_secs_f64())
    }
    fn from_json(value: &Json) -> Result<Self, FieldError> {
        value
            .as_f64()
            .and_then(|secs| Duration::try_from_secs_f64(secs.max(0.0)).ok())
            .ok_or_else(FieldError::wrong::<Self>)
    }
}

/// A histogram bucket travels as the pair `[log2_bucket, count]`.
impl Wire for (u32, u64) {
    const TYPE: WireType = WireType::Arr;
    fn to_json(&self) -> Json {
        Json::Arr(vec![Json::U64(self.0.into()), Json::U64(self.1)])
    }
    fn from_json(value: &Json) -> Result<Self, FieldError> {
        let pair = |bucket: &Json, count: &Json| {
            Some((bucket.as_u64()?.try_into().ok()?, count.as_u64()?))
        };
        match value.as_array() {
            Some([bucket, count]) => pair(bucket, count),
            _ => None,
        }
        .ok_or_else(FieldError::wrong::<Self>)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const TYPE: WireType = WireType::Arr;
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(value: &Json) -> Result<Self, FieldError> {
        let items = value.as_array().ok_or_else(FieldError::wrong::<Self>)?;
        let item = |(i, v)| T::from_json(v).map_err(|e| e.under(&format!("[{i}]")));
        items.iter().enumerate().map(item).collect()
    }
}

/// A name-keyed table of optional values travels as an object, `null`
/// marking an absent value.
impl<T: Wire> Wire for Vec<(String, Option<T>)> {
    const TYPE: WireType = WireType::Obj;
    fn to_json(&self) -> Json {
        let entry = |v: &Option<T>| v.as_ref().map_or(Json::Null, T::to_json);
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), entry(v))).collect())
    }
    fn from_json(value: &Json) -> Result<Self, FieldError> {
        let entries = value.as_object().ok_or_else(FieldError::wrong::<Self>)?;
        let entry = |(k, v): &(String, Json)| match v {
            Json::Null => Ok((k.clone(), None)),
            v => Ok((k.clone(), Some(T::from_json(v).map_err(|e| e.under(k))?))),
        };
        entries.iter().map(entry).collect()
    }
}

/// A name-keyed table travels as an object, in table order.
impl<T: Wire> Wire for Vec<(String, T)> {
    const TYPE: WireType = WireType::Obj;
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
    fn from_json(value: &Json) -> Result<Self, FieldError> {
        let entries = value.as_object().ok_or_else(FieldError::wrong::<Self>)?;
        let entry =
            |(k, v): &(String, Json)| Ok((k.clone(), T::from_json(v).map_err(|e| e.under(k))?));
        entries.iter().map(entry).collect()
    }
}
