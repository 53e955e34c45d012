//! Event model and versioned JSONL schema (v1).
//!
//! Every telemetry record — span completion, counter/gauge/histogram snapshot,
//! or free-form mark — is one [`Event`], serialised as a single JSON object
//! per line. The schema is versioned via a mandatory `"v"` key so downstream
//! tooling can reject logs it does not understand; see [`schema_validate`].

use serde::Value;

/// Version stamped into the `"v"` field of every emitted JSONL line.
pub const SCHEMA_VERSION: u64 = 1;

/// A dynamically-typed field value attached to spans and marks.
///
/// This is deliberately tiny (no nesting): fields carry scalar context such
/// as a generation index or a mean quality, never structured payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Short string label.
    Str(String),
}

impl FieldValue {
    /// Converts to the vendored serde JSON value model.
    pub fn to_value(&self) -> Value {
        match self {
            FieldValue::U64(v) => Value::U64(*v),
            FieldValue::I64(v) => Value::I64(*v),
            FieldValue::F64(v) => Value::F64(*v),
            FieldValue::Bool(v) => Value::Bool(*v),
            FieldValue::Str(v) => Value::Str(v.clone()),
        }
    }

    /// Parses from a JSON value; `None` for nulls, arrays and objects,
    /// which the v1 schema does not allow in field position.
    pub fn from_value(value: &Value) -> Option<FieldValue> {
        match value {
            Value::U64(v) => Some(FieldValue::U64(*v)),
            Value::I64(v) => Some(FieldValue::I64(*v)),
            Value::F64(v) => Some(FieldValue::F64(*v)),
            Value::Bool(v) => Some(FieldValue::Bool(*v)),
            Value::Str(v) => Some(FieldValue::Str(v.clone())),
            _ => None,
        }
    }

    /// Numeric view (integers widened to f64); `None` for bools/strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::U64(v) => Some(*v as f64),
            FieldValue::I64(v) => Some(*v as f64),
            FieldValue::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// Unsigned-integer view; `None` for negatives and non-integers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $conv:ty),+ $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(v: $t) -> FieldValue { FieldValue::$variant(v as $conv) }
        })+
    };
}

impl_field_from!(
    u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, u8 => U64 as u64,
    usize => U64 as u64, i64 => I64 as i64, i32 => I64 as i64,
    f64 => F64 as f64, f32 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// Discriminates what an [`Event`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span (emitted at scope exit with its duration).
    Span,
    /// A monotonic counter total at flush time.
    Counter,
    /// A last-written gauge value at flush time.
    Gauge,
    /// A histogram summary (count/sum/min/max + sparse log2 buckets).
    Hist,
    /// A point-in-time annotation with free-form fields.
    Mark,
}

impl EventKind {
    /// The wire name used in the `"kind"` field.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Hist => "hist",
            EventKind::Mark => "mark",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(s: &str) -> Option<EventKind> {
        match s {
            "span" => Some(EventKind::Span),
            "counter" => Some(EventKind::Counter),
            "gauge" => Some(EventKind::Gauge),
            "hist" => Some(EventKind::Hist),
            "mark" => Some(EventKind::Mark),
            _ => None,
        }
    }
}

/// One telemetry record. Serialises to exactly one JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What this record describes.
    pub kind: EventKind,
    /// Microseconds since the process telemetry epoch.
    pub ts_us: u64,
    /// Small dense per-process thread index (0 = first thread observed).
    pub thread: u64,
    /// Span name or metric key.
    pub name: String,
    /// Full `/`-joined span path (empty for metric events).
    pub path: String,
    /// Wall-clock duration in microseconds (spans only).
    pub dur_us: Option<u64>,
    /// Scalar payload (counter totals and gauge values).
    pub value: Option<FieldValue>,
    /// Ordered key/value context fields.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Serialises to the v1 JSON object (key order is part of the schema).
    pub fn to_value(&self) -> Value {
        let mut obj: Vec<(String, Value)> = vec![
            ("v".to_string(), Value::U64(SCHEMA_VERSION)),
            (
                "kind".to_string(),
                Value::Str(self.kind.as_str().to_string()),
            ),
            ("ts_us".to_string(), Value::U64(self.ts_us)),
            ("thread".to_string(), Value::U64(self.thread)),
            ("name".to_string(), Value::Str(self.name.clone())),
        ];
        if !self.path.is_empty() {
            obj.push(("path".to_string(), Value::Str(self.path.clone())));
        }
        if let Some(dur) = self.dur_us {
            obj.push(("dur_us".to_string(), Value::U64(dur)));
        }
        if let Some(value) = &self.value {
            obj.push(("value".to_string(), value.to_value()));
        }
        if !self.fields.is_empty() {
            let fields: Vec<(String, Value)> = self
                .fields
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect();
            obj.push(("fields".to_string(), Value::Object(fields)));
        }
        Value::Object(obj)
    }

    /// Serialises to one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("Value serialisation is infallible")
    }
}

const TOP_LEVEL_KEYS: &[&str] = &[
    "v", "kind", "ts_us", "thread", "name", "path", "dur_us", "value", "fields",
];

fn require_u64(value: &Value, key: &str) -> Result<u64, String> {
    match value.get(key) {
        Some(Value::U64(v)) => Ok(*v),
        Some(Value::I64(v)) if *v >= 0 => Ok(*v as u64),
        Some(other) => Err(format!(
            "`{key}` must be a non-negative integer, got {other:?}"
        )),
        None => Err(format!("missing required key `{key}`")),
    }
}

fn optional_u64(value: &Value, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None => Ok(None),
        Some(_) => require_u64(value, key).map(Some),
    }
}

/// Validates a parsed JSON object against schema v1 and decodes it.
///
/// Rejects unknown schema versions, unknown top-level keys, unknown kinds,
/// and non-scalar field values — the strictness is what makes the round-trip
/// test meaningful.
pub fn schema_validate(value: &Value) -> Result<Event, String> {
    let obj = match value {
        Value::Object(fields) => fields,
        _ => return Err("event line is not a JSON object".to_string()),
    };
    for (key, _) in obj {
        if !TOP_LEVEL_KEYS.contains(&key.as_str()) {
            return Err(format!("unknown top-level key `{key}`"));
        }
    }
    let version = require_u64(value, "v")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema version {version} (expected {SCHEMA_VERSION})"
        ));
    }
    let kind = match value.get("kind") {
        Some(Value::Str(s)) => {
            EventKind::parse(s).ok_or_else(|| format!("unknown event kind `{s}`"))?
        }
        _ => return Err("missing or non-string `kind`".to_string()),
    };
    let name = match value.get("name") {
        Some(Value::Str(s)) if !s.is_empty() => s.clone(),
        Some(_) => return Err("`name` must be a non-empty string".to_string()),
        None => return Err("missing required key `name`".to_string()),
    };
    let path = match value.get("path") {
        None => String::new(),
        Some(Value::Str(s)) if !s.is_empty() => s.clone(),
        Some(_) => return Err("`path` must be a non-empty string when present".to_string()),
    };
    let dur_us = optional_u64(value, "dur_us")?;
    if dur_us.is_some() && kind != EventKind::Span {
        return Err("`dur_us` is only valid on span events".to_string());
    }
    let payload = match value.get("value") {
        None => None,
        Some(v) => {
            Some(FieldValue::from_value(v).ok_or_else(|| "`value` must be a scalar".to_string())?)
        }
    };
    if payload.is_some() && !matches!(kind, EventKind::Counter | EventKind::Gauge) {
        return Err("`value` is only valid on counter/gauge events".to_string());
    }
    let mut fields = Vec::new();
    match value.get("fields") {
        None => {}
        Some(Value::Object(entries)) => {
            for (key, entry) in entries {
                let field = FieldValue::from_value(entry)
                    .ok_or_else(|| format!("field `{key}` must be a scalar"))?;
                fields.push((key.clone(), field));
            }
        }
        Some(_) => return Err("`fields` must be an object".to_string()),
    }
    Ok(Event {
        kind,
        ts_us: require_u64(value, "ts_us")?,
        thread: require_u64(value, "thread")?,
        name,
        path,
        dur_us,
        value: payload,
        fields,
    })
}

/// Parses and validates one JSONL line.
pub fn parse_line(line: &str) -> Result<Event, String> {
    let value: Value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    schema_validate(&value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_event_round_trips() {
        let event = Event {
            kind: EventKind::Span,
            ts_us: 1234,
            thread: 2,
            name: "ea.generation".to_string(),
            path: "ea.search/ea.generation".to_string(),
            dur_us: Some(42),
            value: None,
            fields: vec![
                ("gen".to_string(), FieldValue::U64(3)),
                ("q_mean".to_string(), FieldValue::F64(0.625)),
                ("device".to_string(), FieldValue::Str("gpu".to_string())),
            ],
        };
        let parsed = parse_line(&event.to_jsonl()).expect("round trip");
        assert_eq!(parsed, event);
    }

    #[test]
    fn unknown_version_rejected() {
        let line = r#"{"v":2,"kind":"mark","ts_us":0,"thread":0,"name":"x"}"#;
        assert!(parse_line(line).unwrap_err().contains("schema version"));
    }

    #[test]
    fn unknown_key_rejected() {
        let line = r#"{"v":1,"kind":"mark","ts_us":0,"thread":0,"name":"x","extra":1}"#;
        assert!(parse_line(line)
            .unwrap_err()
            .contains("unknown top-level key"));
    }

    #[test]
    fn dur_on_non_span_rejected() {
        let line = r#"{"v":1,"kind":"counter","ts_us":0,"thread":0,"name":"x","dur_us":5}"#;
        assert!(parse_line(line).is_err());
    }
}
