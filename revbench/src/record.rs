//! The line format a measuring child writes to its standard output and the
//! parent reads back: one record per line, `<kind> key=value key=value …`,
//! values without spaces.
//!
//! The child streams `begin` before each program and `op` after each
//! finished op, so when it dies the parent knows which program was in flight
//! and how many of its ops finished.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub kind: String,
    fields: BTreeMap<String, String>,
}

impl Record {
    pub fn new(kind: &str) -> Record {
        Record { kind: kind.to_string(), fields: BTreeMap::new() }
    }

    /// Adds a field; the value must not contain whitespace.
    pub fn with(mut self, key: &str, value: impl ToString) -> Record {
        let value = value.to_string();
        debug_assert!(!value.contains(char::is_whitespace), "record value {value:?} has spaces");
        self.fields.insert(key.to_string(), value);
        self
    }

    pub fn parse(line: &str) -> Option<Record> {
        let mut words = line.split_whitespace();
        let mut record = Record::new(words.next()?);
        for word in words {
            let (key, value) = word.split_once('=')?;
            record.fields.insert(key.to_string(), value.to_string());
        }
        Some(record)
    }

    pub fn str(&self, key: &str) -> &str {
        self.fields.get(key).map_or("", String::as_str)
    }

    /// A numeric field; absent or malformed fields read as 0.
    pub fn u64(&self, key: &str) -> u64 {
        self.str(key).parse().unwrap_or(0)
    }

    pub fn f64(&self, key: &str) -> f64 {
        self.str(key).parse().unwrap_or(0.0)
    }

    pub fn line(&self) -> String {
        let mut out = self.kind.clone();
        for (key, value) in &self.fields {
            let _ = write!(out, " {key}={value}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let r = Record::new("op").with("i", 3).with("res", "proved").with("lat", 0.25);
        let back = Record::parse(&r.line()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.u64("i"), 3);
        assert_eq!(back.f64("lat"), 0.25);
        assert_eq!(back.u64("missing"), 0);
        assert!(Record::parse("op novalue").is_none());
    }
}
