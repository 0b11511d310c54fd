//! A JSON writer just big enough for the result line, `results.json` and
//! the Chrome trace. Reading goes through `sparker_obs::json::parse`.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    Int(u64),
    /// Must be finite: a NaN or infinite measurement is a benchmark bug.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Keys in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Num(n) => {
                assert!(n.is_finite(), "non-finite number in benchmark output: {n}");
                // `Display` for f64 prints every digit needed to round-trip
                // and never uses an exponent, so it is valid JSON as is.
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
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
    use sparker_obs::json::{self, Json};

    #[test]
    fn round_trips_through_the_obs_parser() {
        let v = Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Int(1000)),
            (
                "name",
                Value::Str("quote \" slash \\ tab \t nl \n bell \u{7} é".into()),
            ),
            (
                "metrics",
                Value::obj([(
                    "op_ms_p50",
                    Value::obj([
                        ("value", Value::Num(1.2034e-7)),
                        ("unit", Value::Str("ms".into())),
                    ]),
                )]),
            ),
            (
                "values",
                Value::Arr(vec![Value::Num(41.75), Value::Num(-0.5), Value::Int(0)]),
            ),
        ]);
        let text = v.render();
        assert!(!text.contains('\n'), "result line must stay on one line");
        let back = json::parse(&text).expect("parses");
        assert_eq!(back.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("attempted").and_then(Json::as_f64), Some(1000.0));
        assert_eq!(
            back.get("name").and_then(Json::as_str),
            Some("quote \" slash \\ tab \t nl \n bell \u{7} é")
        );
        let m = back
            .get("metrics")
            .and_then(|m| m.get("op_ms_p50"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.2034e-7));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        let values: Vec<f64> = back
            .get("values")
            .and_then(Json::as_array)
            .expect("array")
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        assert_eq!(values, vec![41.75, -0.5, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn refuses_nan() {
        Value::Num(f64::NAN).render();
    }
}
