//! A minimal hand-rolled JSON writer.
//!
//! The workspace is intentionally dependency-free, so reports serialize
//! through this small push-style writer instead of serde. It produces
//! compact, valid JSON; numbers use Rust's shortest round-trip float
//! formatting and non-finite floats become `null` (JSON has no NaN).

/// Push-style JSON builder.
///
/// Callers are responsible for well-formedness in one respect only: every
/// `begin_*` must be paired with its `end_*`. Comma placement and string
/// escaping are handled here.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// For each open container: whether it already has at least one entry.
    stack: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The serialized JSON so far; call once after the root container is
    /// closed.
    pub fn finish(self) -> String {
        self.out
    }

    fn comma(&mut self) {
        if let Some(has_entries) = self.stack.last_mut() {
            if *has_entries {
                self.out.push(',');
            }
            *has_entries = true;
        }
    }

    fn push_escaped(&mut self, s: &str) {
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Opens an object, as a value in the enclosing container.
    pub fn begin_object(&mut self) -> &mut Self {
        self.comma();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Opens an object under `key` (enclosing container must be an object).
    pub fn begin_object_key(&mut self, key: &str) -> &mut Self {
        self.comma();
        self.push_escaped(key);
        self.out.push(':');
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push('}');
        self
    }

    /// Opens an array under `key` (enclosing container must be an object).
    pub fn begin_array_key(&mut self, key: &str) -> &mut Self {
        self.comma();
        self.push_escaped(key);
        self.out.push(':');
        self.out.push('[');
        self.stack.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push(']');
        self
    }

    /// Writes `key: "value"`.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.comma();
        self.push_escaped(key);
        self.out.push(':');
        self.push_escaped(value);
        self
    }

    /// Writes `key: value` for an unsigned integer.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.comma();
        self.push_escaped(key);
        self.out.push(':');
        self.out.push_str(&value.to_string());
        self
    }

    /// Writes `key: true|false`.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.comma();
        self.push_escaped(key);
        self.out.push(':');
        self.out.push_str(if value { "true" } else { "false" });
        self
    }

    /// Writes `key: value` for a float (`null` if non-finite).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.comma();
        self.push_escaped(key);
        self.out.push(':');
        self.push_float(value);
        self
    }

    /// Writes `key: value` for an optional float (`null` for `None` or
    /// non-finite).
    pub fn f64_opt(&mut self, key: &str, value: Option<f64>) -> &mut Self {
        self.f64(key, value.unwrap_or(f64::NAN))
    }

    /// Writes a bare string element into the open array.
    pub fn array_string(&mut self, value: &str) -> &mut Self {
        self.comma();
        self.push_escaped(value);
        self
    }

    /// Writes a bare unsigned integer element into the open array.
    pub fn array_u64(&mut self, value: u64) -> &mut Self {
        self.comma();
        self.out.push_str(&value.to_string());
        self
    }

    fn push_float(&mut self, value: f64) {
        if value.is_finite() {
            // `{:?}` is Rust's shortest round-trip form; it always contains
            // a '.' or an 'e', so the value reparses as a float.
            self.out.push_str(&format!("{value:?}"));
        } else {
            self.out.push_str("null");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_structures() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("name", "report");
        w.u64("count", 3);
        w.begin_object_key("stats");
        w.f64("mean", 1.5);
        w.f64("bad", f64::NAN);
        w.end_object();
        w.begin_array_key("notes");
        w.array_string("a");
        w.array_string("b");
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"report","count":3,"stats":{"mean":1.5,"bad":null},"notes":["a","b"]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("k", "line\nquote\" back\\slash\ttab");
        w.end_object();
        assert_eq!(w.finish(), r#"{"k":"line\nquote\" back\\slash\ttab"}"#);
    }

    #[test]
    fn floats_round_trip() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.f64("x", 1.25e-3);
        w.f64("y", 3.0);
        w.f64_opt("z", None);
        w.end_object();
        let s = w.finish();
        assert!(s.contains("\"x\":0.00125"), "{s}");
        assert!(s.contains("\"y\":3.0"), "{s}");
        assert!(s.contains("\"z\":null"), "{s}");
    }

    #[test]
    fn array_of_integers() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.begin_array_key("bins");
        for v in [1u64, 2, 3] {
            w.array_u64(v);
        }
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), r#"{"bins":[1,2,3]}"#);
    }
}
