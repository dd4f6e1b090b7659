//! The workspace's one JSON encoder: every report file is written through
//! [`JsonWriter`] (DESIGN.md §14 has the rules and their rationale).
//!
//! * [`Layout::Pretty`]: one member per line, two spaces of indent per
//!   enclosing container (inline ones included), and the closing bracket
//!   on its own line, also when empty. [`Layout::Inline`]: members joined
//!   by `, `; an empty container is `[]` / `{}`.
//! * Strings escape `"`, `\`, `\n`, `\r`, `\t` and other control characters
//!   (`\u00XX`). [`JsonWriter::f64`] writes the shortest round-trip decimal,
//!   or `null` when not finite; [`JsonWriter::raw`] passes pre-formatted
//!   numbers and booleans through.

use std::fmt::{Display, Write as _};

use crate::Value;

/// How a container lays out its members (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, two-space indent per nesting level.
    Pretty,
    /// Members on one line, separated by `, `.
    Inline,
}

#[derive(Debug)]
struct Frame {
    layout: Layout,
    empty: bool,
}

/// An append-only JSON writer. Containers are opened with a closure that
/// writes their members, so every bracket is closed by construction;
/// inside an object, each member is a [`key`](Self::key) followed by one
/// value.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    frames: Vec<Frame>,
    keyed: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the separator and line break that precede the next member,
    /// unless that member's key has already been written.
    fn member(&mut self) {
        if std::mem::take(&mut self.keyed) {
            return;
        }
        let depth = self.frames.len();
        let Some(frame) = self.frames.last_mut() else {
            return;
        };
        if !frame.empty {
            self.out.push(',');
        }
        match frame.layout {
            Layout::Pretty => {
                self.out.push('\n');
                push_indent(&mut self.out, depth);
            }
            Layout::Inline if !frame.empty => self.out.push(' '),
            Layout::Inline => {}
        }
        frame.empty = false;
    }

    /// Starts an object member named `key`; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.member();
        render_str(&mut self.out, key);
        self.out.push_str(": ");
        self.keyed = true;
        self
    }

    /// Writes an object whose members `body` writes.
    pub fn object(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, ('{', '}'), body)
    }

    /// Writes an array whose elements `body` writes.
    pub fn array(&mut self, layout: Layout, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(layout, ('[', ']'), body)
    }

    fn container(
        &mut self,
        layout: Layout,
        (open, close): (char, char),
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.member();
        self.out.push(open);
        self.frames.push(Frame {
            layout,
            empty: true,
        });
        body(self);
        let frame = self.frames.pop().expect("container frame");
        if frame.layout == Layout::Pretty {
            self.out.push('\n');
            push_indent(&mut self.out, self.frames.len());
        }
        self.out.push(close);
        self
    }

    /// Writes an escaped string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.member();
        render_str(&mut self.out, v);
        self
    }

    /// Writes a float as its shortest round-trip decimal, or `null` when
    /// it is not finite.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.raw(v)
        } else {
            self.null()
        }
    }

    /// Writes a pre-formatted scalar verbatim: an integer, a boolean, or a
    /// number already formatted by the caller (`format_args!("{v:.4}")`).
    pub fn raw(&mut self, v: impl Display) -> &mut Self {
        self.member();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.raw("null")
    }

    /// Writes a typed event [`Value`].
    pub fn value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::U64(n) => self.raw(n),
            Value::I64(n) => self.raw(n),
            Value::F64(x) => self.f64(*x),
            Value::Str(s) => self.str(s),
            Value::Bool(b) => self.raw(b),
        }
    }

    /// The text written.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A whole JSON document: a pretty root object plus a trailing newline,
/// the layout of every report file in the workspace.
pub fn document(body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.object(Layout::Pretty, body);
    let mut out = w.finish();
    out.push('\n');
    out
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes `v` as a JSON string with the mandatory escapes.
fn render_str(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inline(body: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::new();
        w.object(Layout::Inline, body);
        w.finish()
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let mut w = JsonWriter::new();
        w.str("a\"b\\c\nd\te\rf\u{1}g\u{1f}h\u{7f}é");
        assert_eq!(
            w.finish(),
            "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh\u{7f}é\""
        );
    }

    #[test]
    fn keys_are_escaped_like_values() {
        assert_eq!(
            inline(|w| {
                w.key("a\"b").raw(1);
            }),
            "{\"a\\\"b\": 1}"
        );
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let doc = inline(|w| {
            for (k, v) in [
                ("nan", f64::NAN),
                ("inf", f64::INFINITY),
                ("ninf", f64::NEG_INFINITY),
                ("x", 0.1),
                ("big", 1e300),
                ("neg0", -0.0),
            ] {
                w.key(k).f64(v);
            }
        });
        assert_eq!(
            doc,
            format!(
                "{{\"nan\": null, \"inf\": null, \"ninf\": null, \"x\": 0.1, \"big\": {}, \"neg0\": -0}}",
                1e300
            )
        );
    }

    #[test]
    fn empty_containers_follow_their_layout() {
        let doc = document(|w| {
            w.key("pretty_arr").array(Layout::Pretty, |_| {});
            w.key("pretty_obj").object(Layout::Pretty, |_| {});
            w.key("inline_arr").array(Layout::Inline, |_| {});
            w.key("inline_obj").object(Layout::Inline, |_| {});
        });
        assert_eq!(
            doc,
            "{\n  \"pretty_arr\": [\n  ],\n  \"pretty_obj\": {\n  },\n  \
             \"inline_arr\": [],\n  \"inline_obj\": {}\n}\n"
        );
        assert_eq!(document(|_| {}), "{\n}\n");
    }

    #[test]
    fn pretty_children_nest_inside_inline_parents() {
        let doc = document(|w| {
            w.key("outer").object(Layout::Inline, |w| {
                w.key("n").raw(format_args!("{:.4}", 0.5));
                w.key("rows").array(Layout::Pretty, |w| {
                    w.object(Layout::Inline, |w| {
                        w.key("a").raw(true);
                    });
                    w.object(Layout::Inline, |w| {
                        w.key("b").null();
                    });
                });
            });
            w.key("list").array(Layout::Pretty, |w| {
                w.object(Layout::Pretty, |w| {
                    w.key("s").str("x");
                });
            });
        });
        assert_eq!(
            doc,
            "{\n  \"outer\": {\"n\": 0.5000, \"rows\": [\n      {\"a\": true},\n      \
             {\"b\": null}\n    ]},\n  \"list\": [\n    {\n      \"s\": \"x\"\n    }\n  ]\n}\n"
        );
    }

    #[test]
    fn values_render_by_type() {
        let doc = inline(|w| {
            w.key("u").value(&Value::U64(3));
            w.key("i").value(&Value::I64(-3));
            w.key("f").value(&Value::F64(f64::NAN));
            w.key("s").value(&Value::Str("q\"".into()));
            w.key("b").value(&Value::Bool(false));
        });
        assert_eq!(
            doc,
            "{\"u\": 3, \"i\": -3, \"f\": null, \"s\": \"q\\\"\", \"b\": false}"
        );
    }
}
