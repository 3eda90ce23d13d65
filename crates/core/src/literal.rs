//! Interning of literal values so index entries are fixed-width keys.

use crate::ids::LiteralId;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Interns literal [`Value`]s into dense [`LiteralId`]s.
///
/// Equality is defined by the value's `(kind, canonical string)` pair, which
/// sidesteps `f64` not being `Hash`/`Eq` while keeping semantically equal
/// literals deduplicated.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct LiteralTable {
    values: Vec<Value>,
    #[serde(skip)]
    index: HashMap<String, LiteralId>,
}

fn key_of(v: &Value) -> String {
    // Kind discriminant prefixes the canonical form so `Text("3")` and
    // `Integer(3)` intern separately.
    format!("{:?}|{}", v.kind(), v.canonical())
}

impl LiteralTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `v`, returning a stable id. Entities must not be interned.
    ///
    /// # Panics
    /// Panics (debug) if `v` is `Value::Entity` — entity objects are encoded
    /// directly in [`crate::triple::ObjKey`].
    pub fn intern(&mut self, v: &Value) -> LiteralId {
        debug_assert!(v.as_entity().is_none(), "entities are not literals");
        let k = key_of(v);
        if let Some(&id) = self.index.get(&k) {
            return id;
        }
        let id = LiteralId(self.values.len() as u64);
        self.values.push(v.clone());
        self.index.insert(k, id);
        id
    }

    /// Returns the id of `v` if already interned, without inserting.
    pub fn get(&self, v: &Value) -> Option<LiteralId> {
        self.index.get(&key_of(v)).copied()
    }

    /// Resolves an id back to the value.
    pub fn resolve(&self, id: LiteralId) -> &Value {
        &self.values[id.index()]
    }

    /// Every interned value, by id.
    pub(crate) fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of interned literals.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Rebuilds the lookup index after deserialization.
    pub fn rebuild_index(&mut self) {
        self.index =
            self.values.iter().enumerate().map(|(i, v)| (key_of(v), LiteralId(i as u64))).collect();
    }
}

impl crate::persist::codec::BinCodec for LiteralTable {
    fn enc(&self, out: &mut Vec<u8>) {
        self.values.enc(out);
    }
    fn dec(rd: &mut crate::persist::codec::Reader<'_>) -> crate::error::Result<Self> {
        let mut table = LiteralTable { values: Vec::dec(rd)?, index: HashMap::new() };
        table.rebuild_index();
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Date;

    #[test]
    fn interning_deduplicates() {
        let mut t = LiteralTable::new();
        let a = t.intern(&Value::from("hello"));
        let b = t.intern(&Value::from("world"));
        let a2 = t.intern(&Value::from("hello"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.resolve(a), &Value::from("hello"));
    }

    #[test]
    fn kinds_do_not_collide() {
        let mut t = LiteralTable::new();
        let text = t.intern(&Value::from("3"));
        let int = t.intern(&Value::from(3i64));
        let ident = t.intern(&Value::Identifier("3".into()));
        assert_ne!(text, int);
        assert_ne!(text, ident);
    }

    #[test]
    fn dates_intern_by_value() {
        let mut t = LiteralTable::new();
        let d1 = t.intern(&Value::Date(Date::new(1979, 7, 23).unwrap()));
        let d2 = t.intern(&Value::Date(Date::parse("1979-07-23").unwrap()));
        assert_eq!(d1, d2);
    }

    #[test]
    fn rebuild_index_preserves_lookups() {
        let mut t = LiteralTable::new();
        let id = t.intern(&Value::from(42i64));
        let json = serde_json::to_string(&t).unwrap();
        let mut back: LiteralTable = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.get(&Value::from(42i64)), Some(id));
    }
}
