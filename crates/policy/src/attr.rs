//! Typed action attributes: the "action environment" a request is evaluated
//! against (KeyNote's action attribute set).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A single attribute value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// A signed integer.
    Int(i64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl AttrValue {
    /// Interpret the value as a boolean for condition evaluation:
    /// booleans are themselves, integers are `!= 0`, strings are non-empty.
    pub fn truthy(&self) -> bool {
        self.as_ref().truthy()
    }

    /// Human-readable type name (for error messages).
    pub fn type_name(&self) -> &'static str {
        self.as_ref().type_name()
    }

    /// The borrowed form conditions are evaluated against.
    pub fn as_ref(&self) -> AttrRef<'_> {
        match self {
            AttrValue::Int(i) => AttrRef::Int(*i),
            AttrValue::Str(s) => AttrRef::Str(s),
            AttrValue::Bool(b) => AttrRef::Bool(*b),
        }
    }
}

/// A borrowed attribute value: what condition evaluation compares, so that
/// neither a literal in the expression nor an attribute of the request is
/// cloned to be looked at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttrRef<'a> {
    /// A signed integer.
    Int(i64),
    /// A string.
    Str(&'a str),
    /// A boolean.
    Bool(bool),
}

impl AttrRef<'_> {
    /// See [`AttrValue::truthy`].
    pub fn truthy(self) -> bool {
        match self {
            AttrRef::Bool(b) => b,
            AttrRef::Int(i) => i != 0,
            AttrRef::Str(s) => !s.is_empty(),
        }
    }

    /// See [`AttrValue::type_name`].
    pub fn type_name(self) -> &'static str {
        match self {
            AttrRef::Int(_) => "int",
            AttrRef::Str(_) => "string",
            AttrRef::Bool(_) => "bool",
        }
    }
}

/// Attribute lookup by name: the one thing condition evaluation needs from
/// an action environment. [`Environment`] is the owned implementation;
/// the gateway's `AccessRequest` answers from its own fields, so a cache
/// miss builds no map.
pub trait Attributes {
    /// The value of attribute `name`, if the environment has one.
    fn attr(&self, name: &str) -> Option<AttrRef<'_>>;
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Str(s) => write!(f, "\"{s}\""),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// The action environment: attribute name → value.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    attrs: BTreeMap<String, AttrValue>,
}

impl Environment {
    /// Create an empty environment.
    pub fn new() -> Environment {
        Environment::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, name: &str, value: impl Into<AttrValue>) -> Environment {
        self.set(name, value);
        self
    }

    /// Insert or replace an attribute.
    pub fn set(&mut self, name: &str, value: impl Into<AttrValue>) {
        self.attrs.insert(name.to_string(), value.into());
    }

    /// Look up an attribute.
    pub fn get(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.get(name)
    }

    /// Remove an attribute.
    pub fn remove(&mut self, name: &str) -> Option<AttrValue> {
        self.attrs.remove(name)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Is the environment empty?
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &AttrValue)> {
        self.attrs.iter()
    }

    /// The standard environment for a SecModule call: who is calling which
    /// function of which module, and under what uid.
    pub fn for_smod_call(
        app_domain: &str,
        module: &str,
        version: u32,
        function: &str,
        uid: i64,
    ) -> Environment {
        Environment::new()
            .with("app_domain", app_domain)
            .with("module", module)
            .with("module_version", version as i64)
            .with("function", function)
            .with("uid", uid)
    }
}

impl Attributes for Environment {
    fn attr(&self, name: &str) -> Option<AttrRef<'_>> {
        self.get(name).map(AttrValue::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut env = Environment::new();
        assert!(env.is_empty());
        env.set("uid", 1000i64);
        env.set("module", "libc");
        env.set("debug", true);
        assert_eq!(env.len(), 3);
        assert_eq!(env.get("uid"), Some(&AttrValue::Int(1000)));
        assert_eq!(env.get("module"), Some(&AttrValue::Str("libc".into())));
        assert_eq!(env.get("missing"), None);
        assert_eq!(env.remove("debug"), Some(AttrValue::Bool(true)));
        assert_eq!(env.len(), 2);
    }

    #[test]
    fn builder_style() {
        let env = Environment::new().with("a", 1i64).with("b", "x");
        assert_eq!(env.len(), 2);
    }

    #[test]
    fn truthiness() {
        assert!(AttrValue::Bool(true).truthy());
        assert!(!AttrValue::Bool(false).truthy());
        assert!(AttrValue::Int(5).truthy());
        assert!(!AttrValue::Int(0).truthy());
        assert!(AttrValue::Str("x".into()).truthy());
        assert!(!AttrValue::Str("".into()).truthy());
    }

    #[test]
    fn type_names_and_display() {
        assert_eq!(AttrValue::Int(1).type_name(), "int");
        assert_eq!(AttrValue::Str("s".into()).type_name(), "string");
        assert_eq!(AttrValue::Bool(true).type_name(), "bool");
        assert_eq!(AttrValue::Int(7).to_string(), "7");
        assert_eq!(AttrValue::Str("hi".into()).to_string(), "\"hi\"");
        assert_eq!(AttrValue::Bool(false).to_string(), "false");
    }

    #[test]
    fn smod_call_environment_has_expected_attributes() {
        let env = Environment::for_smod_call("payroll", "libcrypto", 2, "aes_encrypt", 1000);
        assert_eq!(env.get("module"), Some(&AttrValue::Str("libcrypto".into())));
        assert_eq!(env.get("module_version"), Some(&AttrValue::Int(2)));
        assert_eq!(
            env.get("function"),
            Some(&AttrValue::Str("aes_encrypt".into()))
        );
        assert_eq!(env.get("uid"), Some(&AttrValue::Int(1000)));
        assert_eq!(
            env.get("app_domain"),
            Some(&AttrValue::Str("payroll".into()))
        );
    }

    #[test]
    fn iteration_is_ordered_by_name() {
        let env = Environment::new().with("zeta", 1i64).with("alpha", 2i64);
        let names: Vec<&String> = env.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
