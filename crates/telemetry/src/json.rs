//! Minimal JSON emission.
//!
//! The workspace has no serialization dependency, but the telemetry
//! crate's snapshots, trace lines, and run manifests are all JSON. These builders
//! produce correctly escaped JSON text with no dependencies; they write
//! objects and arrays append-only, which is all a telemetry exporter
//! needs.

/// Escape a string for inclusion inside JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON value (`null` for NaN/infinity, which JSON
/// cannot represent).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// An append-only JSON object builder.
#[derive(Clone, Debug)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> JsonObject {
        JsonObject { buf: String::new() }
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
    }

    fn key(&mut self, k: &str) {
        self.sep();
        self.buf.push('"');
        self.buf.push_str(&escape(k));
        self.buf.push_str("\":");
    }

    /// Add a string field.
    pub fn field_str(mut self, k: &str, v: &str) -> JsonObject {
        self.key(k);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// Add an unsigned integer field.
    pub fn field_u64(mut self, k: &str, v: u64) -> JsonObject {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Add a float field (`null` for non-finite values).
    pub fn field_f64(mut self, k: &str, v: f64) -> JsonObject {
        self.key(k);
        self.buf.push_str(&number(v));
        self
    }

    /// Add a boolean field.
    pub fn field_bool(mut self, k: &str, v: bool) -> JsonObject {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a field whose value is already-rendered JSON (an object,
    /// array, or other literal).
    pub fn field_raw(mut self, k: &str, v: &str) -> JsonObject {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Close the object and return its JSON text.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

impl Default for JsonObject {
    fn default() -> JsonObject {
        JsonObject::new()
    }
}

/// An append-only JSON array builder.
#[derive(Clone, Debug)]
pub struct JsonArray {
    buf: String,
}

impl JsonArray {
    /// Start an empty array.
    pub fn new() -> JsonArray {
        JsonArray { buf: String::new() }
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
    }

    /// Append an unsigned integer element.
    pub fn push_u64(mut self, v: u64) -> JsonArray {
        self.sep();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Append a float element (`null` for non-finite values).
    pub fn push_f64(mut self, v: f64) -> JsonArray {
        self.sep();
        self.buf.push_str(&number(v));
        self
    }

    /// Append already-rendered JSON (an object, array, or literal).
    pub fn push_raw(mut self, v: &str) -> JsonArray {
        self.sep();
        self.buf.push_str(v);
        self
    }

    /// Close the array and return its JSON text.
    pub fn finish(self) -> String {
        format!("[{}]", self.buf)
    }
}

impl Default for JsonArray {
    fn default() -> JsonArray {
        JsonArray::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{01}"), "\\u0001");
    }

    #[test]
    fn object_layout() {
        let o = JsonObject::new()
            .field_str("name", "k = 1, \"normal\"")
            .field_u64("count", 7)
            .field_f64("mean", 1.5)
            .field_bool("ok", true)
            .field_raw("nested", "[1,2]")
            .finish();
        assert_eq!(
            o,
            r#"{"name":"k = 1, \"normal\"","count":7,"mean":1.5,"ok":true,"nested":[1,2]}"#
        );
    }

    #[test]
    fn array_layout() {
        let a = JsonArray::new()
            .push_u64(1)
            .push_f64(0.5)
            .push_raw("{}")
            .finish();
        assert_eq!(a, r#"[1,0.5,{}]"#);
    }

    #[test]
    fn empty_collections() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(JsonArray::new().finish(), "[]");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(
            JsonObject::new().field_f64("x", f64::NAN).finish(),
            r#"{"x":null}"#
        );
    }
}
