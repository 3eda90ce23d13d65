//! Triple object values: entity references and typed literals.

use crate::ids::EntityId;
use std::fmt;

/// A simple calendar date (proleptic Gregorian). The synthetic KG and the
/// extraction pipeline reason about dates (e.g. dates of birth, release
/// dates), so we carry a small dedicated type rather than strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // calendar components
pub struct Date {
    pub year: i32,
    pub month: u8,
    pub day: u8,
}

impl Date {
    /// Creates a date, validating month/day ranges (not full calendar rules).
    pub fn new(year: i32, month: u8, day: u8) -> Option<Self> {
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return None;
        }
        Some(Self { year, month, day })
    }

    /// Parses `YYYY-MM-DD`.
    pub fn parse(s: &str) -> Option<Self> {
        let mut it = s.splitn(3, '-');
        let year: i32 = it.next()?.parse().ok()?;
        let month: u8 = it.next()?.parse().ok()?;
        let day: u8 = it.next()?.parse().ok()?;
        Self::new(year, month, day)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// The kind of a [`Value`], used by view definitions to filter literal
/// classes (e.g. drop numeric facts before embedding training, per Sec. 2 of
/// the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // tags mirror the `Value` variants
pub enum ValueKind {
    Entity,
    Text,
    Integer,
    Float,
    Date,
    Bool,
    Identifier,
}

/// The object position of a triple: either a reference to another entity or a
/// typed literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Reference to another KG entity.
    Entity(EntityId),
    /// Free-form text (names, descriptions).
    Text(String),
    /// Integer quantity (heights, counts, follower numbers...).
    Integer(i64),
    /// Floating point quantity.
    Float(f64),
    /// Calendar date.
    Date(Date),
    /// Boolean flag.
    Bool(bool),
    /// External identifier (e.g. a National Library ID); textual but opaque.
    Identifier(String),
}

impl Value {
    /// Returns the kind tag of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Entity(_) => ValueKind::Entity,
            Value::Text(_) => ValueKind::Text,
            Value::Integer(_) => ValueKind::Integer,
            Value::Float(_) => ValueKind::Float,
            Value::Date(_) => ValueKind::Date,
            Value::Bool(_) => ValueKind::Bool,
            Value::Identifier(_) => ValueKind::Identifier,
        }
    }

    /// Returns the referenced entity id if this value is an entity.
    pub fn as_entity(&self) -> Option<EntityId> {
        match self {
            Value::Entity(e) => Some(*e),
            _ => None,
        }
    }

    /// Returns the text if this value is textual (`Text` or `Identifier`).
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) | Value::Identifier(s) => Some(s),
            _ => None,
        }
    }

    /// A canonical display string, used for value equality in corroboration
    /// and for rendering synthetic web pages: what
    /// [`write_canonical`](Self::write_canonical) writes.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out).expect("a String takes every write");
        out
    }

    /// Writes the [`canonical`](Self::canonical) string to `out`, allocating
    /// nothing itself: floats at four decimals, dates as `YYYY-MM-DD`,
    /// entities as `@id`, text and identifiers as they are.
    pub fn write_canonical(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Entity(e) => write!(out, "@{}", e.raw()),
            Value::Text(s) | Value::Identifier(s) => out.write_str(s),
            Value::Integer(i) => write!(out, "{i}"),
            Value::Float(f) => write!(out, "{f:.4}"),
            Value::Date(d) => write!(out, "{d}"),
            Value::Bool(b) => write!(out, "{b}"),
        }
    }

    /// True if two values denote the same fact object, with tolerant float
    /// comparison (extraction may lose precision).
    pub fn same_as(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Float(a), Value::Float(b)) => (a - b).abs() < 1e-6 * a.abs().max(1.0),
            (Value::Float(a), Value::Integer(b)) | (Value::Integer(b), Value::Float(a)) => {
                (a - *b as f64).abs() < 1e-6
            }
            (a, b) => a == b,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_canonical(f)
    }
}

impl From<EntityId> for Value {
    fn from(e: EntityId) -> Self {
        Value::Entity(e)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Integer(i)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<Date> for Value {
    fn from(d: Date) -> Self {
        Value::Date(d)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

mod codec_impls {
    use super::{Date, Value, ValueKind};
    use crate::error::{Result, SagaError};
    use crate::persist::codec::{str_len, BinCodec, Reader};

    impl Value {
        /// The number of bytes [`BinCodec::enc`] appends for this value.
        pub(crate) fn encoded_len(&self) -> usize {
            1 + match self {
                Value::Entity(_) | Value::Integer(_) | Value::Float(_) => 8,
                Value::Text(s) | Value::Identifier(s) => str_len(s),
                Value::Date(_) => 4 + 1 + 1,
                Value::Bool(_) => 1,
            }
        }
    }

    impl BinCodec for Date {
        fn enc(&self, out: &mut Vec<u8>) {
            self.year.enc(out);
            self.month.enc(out);
            self.day.enc(out);
        }
        fn dec(rd: &mut Reader<'_>) -> Result<Self> {
            let (year, month, day) = (i32::dec(rd)?, u8::dec(rd)?, u8::dec(rd)?);
            Date::new(year, month, day).ok_or_else(|| {
                SagaError::Corrupt(format!("invalid date {year:04}-{month:02}-{day:02}"))
            })
        }
    }

    impl BinCodec for ValueKind {
        fn enc(&self, out: &mut Vec<u8>) {
            let tag: u8 = match self {
                ValueKind::Entity => 0,
                ValueKind::Text => 1,
                ValueKind::Integer => 2,
                ValueKind::Float => 3,
                ValueKind::Date => 4,
                ValueKind::Bool => 5,
                ValueKind::Identifier => 6,
            };
            out.push(tag);
        }
        fn dec(rd: &mut Reader<'_>) -> Result<Self> {
            Ok(match rd.u8()? {
                0 => ValueKind::Entity,
                1 => ValueKind::Text,
                2 => ValueKind::Integer,
                3 => ValueKind::Float,
                4 => ValueKind::Date,
                5 => ValueKind::Bool,
                6 => ValueKind::Identifier,
                b => return Err(SagaError::Corrupt(format!("invalid value-kind tag {b:#04x}"))),
            })
        }
    }

    impl BinCodec for Value {
        fn enc(&self, out: &mut Vec<u8>) {
            self.kind().enc(out);
            match self {
                Value::Entity(e) => e.enc(out),
                Value::Text(s) | Value::Identifier(s) => s.enc(out),
                Value::Integer(i) => i.enc(out),
                Value::Float(f) => f.enc(out),
                Value::Date(d) => d.enc(out),
                Value::Bool(b) => b.enc(out),
            }
        }
        fn dec(rd: &mut Reader<'_>) -> Result<Self> {
            Ok(match ValueKind::dec(rd)? {
                ValueKind::Entity => Value::Entity(BinCodec::dec(rd)?),
                ValueKind::Text => Value::Text(String::dec(rd)?),
                ValueKind::Integer => Value::Integer(i64::dec(rd)?),
                ValueKind::Float => Value::Float(f64::dec(rd)?),
                ValueKind::Date => Value::Date(Date::dec(rd)?),
                ValueKind::Bool => Value::Bool(bool::dec(rd)?),
                ValueKind::Identifier => Value::Identifier(String::dec(rd)?),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_parse_and_display_round_trip() {
        let d = Date::parse("1979-07-23").unwrap();
        assert_eq!(d, Date::new(1979, 7, 23).unwrap());
        assert_eq!(d.to_string(), "1979-07-23");
    }

    #[test]
    fn date_rejects_invalid() {
        assert!(Date::new(2000, 0, 1).is_none());
        assert!(Date::new(2000, 13, 1).is_none());
        assert!(Date::new(2000, 1, 32).is_none());
        assert!(Date::parse("not-a-date").is_none());
        assert!(Date::parse("2000-01").is_none());
    }

    #[test]
    fn dates_order_chronologically() {
        let a = Date::new(1979, 7, 23).unwrap();
        let b = Date::new(1980, 9, 9).unwrap();
        let c = Date::new(1980, 10, 1).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn value_kinds_and_accessors() {
        assert_eq!(Value::Entity(EntityId(1)).kind(), ValueKind::Entity);
        assert_eq!(Value::from("x").kind(), ValueKind::Text);
        assert_eq!(Value::from(3i64).kind(), ValueKind::Integer);
        assert_eq!(Value::Identifier("Q42".into()).kind(), ValueKind::Identifier);
        assert_eq!(Value::Entity(EntityId(5)).as_entity(), Some(EntityId(5)));
        assert_eq!(Value::from("hi").as_text(), Some("hi"));
        assert_eq!(Value::from(1i64).as_entity(), None);
    }

    #[test]
    fn same_as_is_tolerant_for_floats() {
        assert!(Value::Float(1.0).same_as(&Value::Float(1.0 + 1e-9)));
        assert!(Value::Float(3.0).same_as(&Value::Integer(3)));
        assert!(!Value::Float(3.0).same_as(&Value::Integer(4)));
        assert!(Value::from("a").same_as(&Value::from("a")));
        assert!(!Value::from("a").same_as(&Value::from("b")));
    }

    /// The canonical string as each kind formatted it on its own, before
    /// one writer served `canonical` and `Display`.
    fn reference_canonical(v: &Value) -> String {
        match v {
            Value::Entity(e) => format!("@{}", e.raw()),
            Value::Text(s) | Value::Identifier(s) => s.clone(),
            Value::Integer(i) => i.to_string(),
            Value::Float(f) => format!("{f:.4}"),
            Value::Date(d) => d.to_string(),
            Value::Bool(b) => b.to_string(),
        }
    }

    #[test]
    fn write_canonical_equals_canonical_for_every_kind() {
        let date = |y, m, d| Value::Date(Date::new(y, m, d).unwrap());
        let values = [
            Value::Entity(EntityId(0)),
            Value::Entity(EntityId(u64::MAX >> 1)),
            Value::Text(String::new()),
            Value::Text("Zoë — 10".into()),
            Value::Identifier("Q42".into()),
            Value::Integer(0),
            Value::Integer(-3),
            Value::Integer(i64::MIN),
            Value::Integer(i64::MAX),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.00001),
            Value::Float(1.00004),
            Value::Float(-1.5),
            Value::Float(f64::MAX),
            Value::Float(f64::MIN),
            Value::Float(f64::MIN_POSITIVE),
            Value::Float(f64::INFINITY),
            date(1999, 12, 31),
            date(7, 1, 2),
            date(-44, 3, 15),
            Value::Bool(true),
            Value::Bool(false),
        ];
        for v in &values {
            let mut written = String::new();
            v.write_canonical(&mut written).unwrap();
            assert_eq!(written, reference_canonical(v), "{v:?}");
            assert_eq!(v.canonical(), written, "{v:?}");
            assert_eq!(v.to_string(), written, "{v:?}");
        }
        // Appending to a buffer leaves what it held.
        let mut both = String::from("|");
        values[6].write_canonical(&mut both).unwrap();
        values[11].write_canonical(&mut both).unwrap();
        assert_eq!(both, "|-31.0000");
        assert_eq!(Value::Float(-0.0).canonical(), "-0.0000");
        assert_eq!(Value::Float(1.00001).canonical(), Value::Float(1.00004).canonical());
        assert!(Value::Float(f64::MAX).canonical().len() > 300);
        assert_eq!(date(7, 1, 2).canonical(), "0007-01-02");
    }

    #[test]
    fn canonical_strings() {
        assert_eq!(Value::Entity(EntityId(9)).canonical(), "@9");
        assert_eq!(Value::Date(Date::new(2020, 1, 2).unwrap()).canonical(), "2020-01-02");
        assert_eq!(Value::Bool(true).canonical(), "true");
    }
}
