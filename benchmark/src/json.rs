//! A hand-written JSON emitter: the vendored `serde` shim has no JSON
//! back end, and the benchmark only ever writes JSON.

use std::fmt::{self, Write};

/// A JSON value. Objects keep insertion order so output is stable.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    /// Whole numbers (counts) print without a fraction.
    Int(u64),
    /// Measured values print with every digit `f64` round-trips.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            // JSON has no NaN/inf; a non-finite measurement is a harness
            // bug and must not produce a line that parses as something else.
            Json::Num(x) if !x.is_finite() => f.write_str("null"),
            // `{}` on f64 is the shortest text that round-trips, never in
            // exponent form: all the digits that were measured.
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_nested_values_in_order() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([(
                    "op_p50_us",
                    Json::obj([("value", Json::Num(0.2125)), ("unit", Json::str("us"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Bool(false), Json::Int(2)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"correct": true, "attempted": 1000, "metrics": {"op_p50_us": {"value": 0.2125, "unit": "us"}}, "list": [false, 2]}"#
        );
    }

    #[test]
    fn escapes_strings_and_guards_non_finite() {
        assert_eq!(
            Json::str("a\"b\\c\n\u{1}").to_string(),
            r#""a\"b\\c\n\u0001""#
        );
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(1234567.0).to_string(), "1234567");
        assert_eq!(
            Json::Num(4812345.123456789).to_string(),
            "4812345.123456789"
        );
    }
}
