//! The wire protocol: newline-delimited JSON frames over TCP.
//!
//! Grammar (one frame per line, `\n`-terminated, at most
//! [`MAX_FRAME_BYTES`] bytes including the newline):
//!
//! ```text
//! request  = { "v": 1, "id": string, "cmd": command, ...fields } "\n"
//! command  = "status" | "predict_latency" | "score" | "search" | "pareto"
//!          | "infer" | "shutdown"
//! response = { "v": 1, "id": string, "code": number,
//!              "result": value | "error": string } "\n"
//! ```
//!
//! Field requirements per command:
//!
//! * `predict_latency`: `device` (string), `arch` (array of ints).
//! * `score`: `device`, `target_ms` (finite, > 0), `arch`.
//! * `search`: `device`, `target_ms`, `seed` (unsigned int, default 0).
//! * `pareto`: `devices` (non-empty array of 1..=[`MAX_PARETO_DEVICES`]
//!   strings; duplicates and any ordering accepted — the server
//!   canonicalizes), `target_ms`, `seed` (unsigned int, default 0).
//! * `infer`: `arch`, `input_seed` (unsigned int, default 0), `batch`
//!   (1..=[`MAX_INFER_BATCH`], default 1). Compiled artifacts are cached
//!   per genome, so repeated `infer` requests skip compilation.
//! * `status` / `shutdown`: no extra fields.
//!
//! Response codes mirror HTTP where a familiar number exists:
//! [`CODE_OK`] 200, [`CODE_BAD_REQUEST`] 400, [`CODE_UNKNOWN_DEVICE`] 404,
//! [`CODE_FRAME_TOO_LARGE`] 413, [`CODE_OVERLOADED`] 429,
//! [`CODE_INTERNAL`] 500, [`CODE_SHUTTING_DOWN`] 503.

use crate::json::{self, Json};
use std::io::{self, BufRead};

/// Protocol version spoken by this crate. Requests may omit `v`; if
/// present it must equal this.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one frame (request or response line), newline included.
/// Oversized frames are consumed to the next newline and rejected with
/// [`CODE_FRAME_TOO_LARGE`], leaving the connection usable.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// Largest `infer` batch one request may ask for — keeps the logits
/// response comfortably inside [`MAX_FRAME_BYTES`].
pub const MAX_INFER_BATCH: usize = 16;

/// Most devices one `pareto` request may co-optimize over — bounds both
/// the per-candidate evaluation cost and the frontier response size.
pub const MAX_PARETO_DEVICES: usize = 8;

/// Request accepted and answered.
pub const CODE_OK: u16 = 200;
/// Malformed JSON or invalid/missing fields.
pub const CODE_BAD_REQUEST: u16 = 400;
/// The `device` field names no known device.
pub const CODE_UNKNOWN_DEVICE: u16 = 404;
/// The frame exceeded [`MAX_FRAME_BYTES`].
pub const CODE_FRAME_TOO_LARGE: u16 = 413;
/// The evaluation queue is full — retry later (backpressure).
pub const CODE_OVERLOADED: u16 = 429;
/// The server failed internally while answering.
pub const CODE_INTERNAL: u16 = 500;
/// The server is draining and accepts no new evaluation work.
pub const CODE_SHUTTING_DOWN: u16 = 503;

/// One decoded request command with its payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Server metrics and per-device state.
    Status,
    /// Begin graceful drain: queued work is answered, then the process exits.
    Shutdown,
    /// Eq. 2 LUT latency for one architecture.
    PredictLatency {
        /// Target device name or alias.
        device: String,
        /// `Arch::encode()` form: `[op_0, scale_0, op_1, scale_1, ...]`.
        arch: Vec<usize>,
    },
    /// Eq. 1 score for one architecture under a latency target.
    Score {
        /// Target device name or alias.
        device: String,
        /// Latency target `T` in milliseconds.
        target_ms: f64,
        /// Encoded architecture.
        arch: Vec<usize>,
    },
    /// A full evolutionary search for the given device/target/seed.
    Search {
        /// Target device name or alias.
        device: String,
        /// Latency target `T` in milliseconds.
        target_ms: f64,
        /// RNG seed driving the EA — same seed, same result bytes.
        seed: u64,
    },
    /// A multi-device co-exploration: one NSGA-II search returning the
    /// non-dominated accuracy/latency frontier over a device fleet.
    Pareto {
        /// Device names or aliases (1..=[`MAX_PARETO_DEVICES`]); the
        /// server canonicalizes, dedups, and sorts before searching, so
        /// permutations of the same set answer identically.
        devices: Vec<String>,
        /// Latency target `T` in milliseconds (shared across devices).
        target_ms: f64,
        /// RNG seed driving the EA — same seed, same frontier bytes.
        seed: u64,
    },
    /// Compile (or fetch from the artifact cache) the genome's optimized
    /// graph and run it on a seeded synthetic batch.
    Infer {
        /// Encoded architecture.
        arch: Vec<usize>,
        /// Seed for the synthetic input batch.
        input_seed: u64,
        /// Images in the batch (1..=[`MAX_INFER_BATCH`]).
        batch: usize,
    },
}

impl Command {
    /// The wire name of the command.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Status => "status",
            Command::Shutdown => "shutdown",
            Command::PredictLatency { .. } => "predict_latency",
            Command::Score { .. } => "score",
            Command::Search { .. } => "search",
            Command::Pareto { .. } => "pareto",
            Command::Infer { .. } => "infer",
        }
    }
}

/// A decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// The command and its payload.
    pub command: Command,
}

/// Why a frame failed to decode into a [`Request`] (or [`Response`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    /// Response code to send back ([`CODE_BAD_REQUEST`] for all decode
    /// failures today).
    pub code: u16,
    /// Human-readable cause, safe to echo to the client.
    pub detail: String,
    /// The request id, when the frame parsed far enough to recover one —
    /// lets the error response still correlate.
    pub id: Option<String>,
}

impl ProtoError {
    fn bad(detail: impl Into<String>, id: Option<String>) -> ProtoError {
        ProtoError {
            code: CODE_BAD_REQUEST,
            detail: detail.into(),
            id,
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.code, self.detail)
    }
}

impl std::error::Error for ProtoError {}

/// Longest accepted `id` field — ids are echoed into every response and
/// telemetry record, so they are kept short.
const MAX_ID_LEN: usize = 256;

fn field_str(obj: &Json, key: &str, id: &Option<String>) -> Result<String, ProtoError> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtoError::bad(format!("missing or non-string field '{key}'"), id.clone()))
}

fn field_target_ms(obj: &Json, id: &Option<String>) -> Result<f64, ProtoError> {
    let t = obj
        .get("target_ms")
        .and_then(Json::as_f64)
        .ok_or_else(|| ProtoError::bad("missing or non-numeric field 'target_ms'", id.clone()))?;
    if !t.is_finite() || t <= 0.0 {
        return Err(ProtoError::bad(
            format!("target_ms must be finite and positive, got {t}"),
            id.clone(),
        ));
    }
    Ok(t)
}

fn field_arch(obj: &Json, id: &Option<String>) -> Result<Vec<usize>, ProtoError> {
    let items = obj
        .get("arch")
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::bad("missing or non-array field 'arch'", id.clone()))?;
    if items.len() > 1024 {
        return Err(ProtoError::bad(
            format!("arch has {} entries; limit is 1024", items.len()),
            id.clone(),
        ));
    }
    items
        .iter()
        .map(|v| {
            v.as_u64().map(|n| n as usize).ok_or_else(|| {
                ProtoError::bad("arch entries must be unsigned integers", id.clone())
            })
        })
        .collect()
}

impl Request {
    /// Decodes one frame (without its trailing newline).
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] naming the first problem; when the JSON
    /// itself parsed, the error carries the request `id` for correlation.
    pub fn decode(bytes: &[u8]) -> Result<Request, ProtoError> {
        let value = json::parse(bytes).map_err(|e| ProtoError::bad(e.to_string(), None))?;
        if !matches!(value, Json::Obj(_)) {
            return Err(ProtoError::bad("request frame must be a JSON object", None));
        }
        let id = match value.get("id") {
            None => String::new(),
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| ProtoError::bad("'id' must be a string", None))?,
        };
        if id.len() > MAX_ID_LEN {
            return Err(ProtoError::bad(
                format!("'id' longer than {MAX_ID_LEN} bytes"),
                None,
            ));
        }
        let id_for_err = Some(id.clone());
        if let Some(v) = value.get("v") {
            match v.as_u64() {
                Some(PROTOCOL_VERSION) => {}
                _ => {
                    return Err(ProtoError::bad(
                        format!(
                            "unsupported protocol version (this server speaks v{PROTOCOL_VERSION})"
                        ),
                        id_for_err,
                    ))
                }
            }
        }
        let cmd = field_str(&value, "cmd", &id_for_err)?;
        let command = match cmd.as_str() {
            "status" => Command::Status,
            "shutdown" => Command::Shutdown,
            "predict_latency" => Command::PredictLatency {
                device: field_str(&value, "device", &id_for_err)?,
                arch: field_arch(&value, &id_for_err)?,
            },
            "score" => Command::Score {
                device: field_str(&value, "device", &id_for_err)?,
                target_ms: field_target_ms(&value, &id_for_err)?,
                arch: field_arch(&value, &id_for_err)?,
            },
            "search" => Command::Search {
                device: field_str(&value, "device", &id_for_err)?,
                target_ms: field_target_ms(&value, &id_for_err)?,
                seed: match value.get("seed") {
                    None => 0,
                    Some(v) => v.as_u64().ok_or_else(|| {
                        ProtoError::bad("'seed' must be an unsigned integer", id_for_err.clone())
                    })?,
                },
            },
            "pareto" => {
                let items = value.get("devices").and_then(Json::as_arr).ok_or_else(|| {
                    ProtoError::bad("missing or non-array field 'devices'", id_for_err.clone())
                })?;
                if items.is_empty() || items.len() > MAX_PARETO_DEVICES {
                    return Err(ProtoError::bad(
                        format!(
                            "devices must list 1..={MAX_PARETO_DEVICES} names, got {}",
                            items.len()
                        ),
                        id_for_err,
                    ));
                }
                let devices = items
                    .iter()
                    .map(|v| {
                        v.as_str().map(str::to_string).ok_or_else(|| {
                            ProtoError::bad("devices entries must be strings", id_for_err.clone())
                        })
                    })
                    .collect::<Result<Vec<String>, ProtoError>>()?;
                Command::Pareto {
                    devices,
                    target_ms: field_target_ms(&value, &id_for_err)?,
                    seed: match value.get("seed") {
                        None => 0,
                        Some(v) => v.as_u64().ok_or_else(|| {
                            ProtoError::bad(
                                "'seed' must be an unsigned integer",
                                id_for_err.clone(),
                            )
                        })?,
                    },
                }
            }
            "infer" => {
                let batch = match value.get("batch") {
                    None => 1,
                    Some(v) => v.as_u64().map(|n| n as usize).ok_or_else(|| {
                        ProtoError::bad("'batch' must be an unsigned integer", id_for_err.clone())
                    })?,
                };
                if batch == 0 || batch > MAX_INFER_BATCH {
                    return Err(ProtoError::bad(
                        format!("batch must be in 1..={MAX_INFER_BATCH}, got {batch}"),
                        id_for_err,
                    ));
                }
                Command::Infer {
                    arch: field_arch(&value, &id_for_err)?,
                    input_seed: match value.get("input_seed") {
                        None => 0,
                        Some(v) => v.as_u64().ok_or_else(|| {
                            ProtoError::bad(
                                "'input_seed' must be an unsigned integer",
                                id_for_err.clone(),
                            )
                        })?,
                    },
                    batch,
                }
            }
            other => {
                return Err(ProtoError::bad(
                    format!("unknown cmd '{other}'"),
                    id_for_err,
                ))
            }
        };
        Ok(Request { id, command })
    }

    /// Renders the request as one frame line (no trailing newline).
    /// Deterministic field order, so identical requests are identical bytes.
    pub fn encode(&self) -> String {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("v", Json::Num(PROTOCOL_VERSION as f64)),
            ("id", Json::Str(self.id.clone())),
            ("cmd", Json::Str(self.command.name().to_string())),
        ];
        match &self.command {
            Command::Status | Command::Shutdown => {}
            Command::PredictLatency { device, arch } => {
                pairs.push(("device", Json::Str(device.clone())));
                pairs.push(("arch", encode_arch(arch)));
            }
            Command::Score {
                device,
                target_ms,
                arch,
            } => {
                pairs.push(("device", Json::Str(device.clone())));
                pairs.push(("target_ms", Json::Num(*target_ms)));
                pairs.push(("arch", encode_arch(arch)));
            }
            Command::Search {
                device,
                target_ms,
                seed,
            } => {
                pairs.push(("device", Json::Str(device.clone())));
                pairs.push(("target_ms", Json::Num(*target_ms)));
                pairs.push(("seed", Json::Num(*seed as f64)));
            }
            Command::Pareto {
                devices,
                target_ms,
                seed,
            } => {
                pairs.push((
                    "devices",
                    Json::Arr(devices.iter().map(|d| Json::Str(d.clone())).collect()),
                ));
                pairs.push(("target_ms", Json::Num(*target_ms)));
                pairs.push(("seed", Json::Num(*seed as f64)));
            }
            Command::Infer {
                arch,
                input_seed,
                batch,
            } => {
                pairs.push(("arch", encode_arch(arch)));
                pairs.push(("input_seed", Json::Num(*input_seed as f64)));
                pairs.push(("batch", Json::Num(*batch as f64)));
            }
        }
        Json::obj(pairs).encode()
    }
}

/// A genome as its wire array of gene indices.
pub(crate) fn encode_arch(arch: &[usize]) -> Json {
    Json::Arr(arch.iter().map(|&g| Json::Num(g as f64)).collect())
}

/// A response frame: the echoed id, a status code, and either a result
/// value (code 200) or an error string (anything else).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request id this answers ("" when the request had none or was
    /// unparseable).
    pub id: String,
    /// One of the `CODE_*` constants.
    pub code: u16,
    /// Present iff `code == 200`.
    pub result: Option<Json>,
    /// Present iff `code != 200`.
    pub error: Option<String>,
}

impl Response {
    /// A 200 response carrying `result`.
    pub fn ok(id: impl Into<String>, result: Json) -> Response {
        Response {
            id: id.into(),
            code: CODE_OK,
            result: Some(result),
            error: None,
        }
    }

    /// A non-200 response carrying an error message.
    pub fn fail(id: impl Into<String>, code: u16, detail: impl Into<String>) -> Response {
        Response {
            id: id.into(),
            code,
            result: None,
            error: Some(detail.into()),
        }
    }

    /// Whether this is a 200.
    pub fn is_ok(&self) -> bool {
        self.code == CODE_OK
    }

    /// Renders the response as one frame line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("v", Json::Num(PROTOCOL_VERSION as f64)),
            ("id", Json::Str(self.id.clone())),
            ("code", Json::Num(f64::from(self.code))),
        ];
        if let Some(result) = &self.result {
            pairs.push(("result", result.clone()));
        }
        if let Some(error) = &self.error {
            pairs.push(("error", Json::Str(error.clone())));
        }
        Json::obj(pairs).encode()
    }

    /// Decodes one response frame.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] if the frame is not a well-formed response.
    pub fn decode(bytes: &[u8]) -> Result<Response, ProtoError> {
        let value = json::parse(bytes).map_err(|e| ProtoError::bad(e.to_string(), None))?;
        if !matches!(value, Json::Obj(_)) {
            return Err(ProtoError::bad(
                "response frame must be a JSON object",
                None,
            ));
        }
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let code = value
            .get("code")
            .and_then(Json::as_u64)
            .and_then(|c| u16::try_from(c).ok())
            .ok_or_else(|| ProtoError::bad("missing or invalid 'code'", Some(id.clone())))?;
        let result = value.get("result").cloned();
        let error = value
            .get("error")
            .and_then(Json::as_str)
            .map(str::to_string);
        if (code == CODE_OK) != result.is_some() || (code != CODE_OK) != error.is_some() {
            return Err(ProtoError::bad(
                "response must carry 'result' iff code is 200, else 'error'",
                Some(id),
            ));
        }
        Ok(Response {
            id,
            code,
            result,
            error,
        })
    }
}

/// One framing-layer read outcome.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (newline stripped).
    Line(Vec<u8>),
    /// The line exceeded `max` bytes; input was consumed up to (and
    /// including) the next newline or EOF, so the stream is resynchronized.
    Oversized,
    /// Clean end of stream with no pending bytes.
    Eof,
}

/// Reads one `\n`-delimited frame of at most `max` bytes.
///
/// A final line without a trailing newline is returned as a normal
/// [`Frame::Line`]. Oversized lines are drained to the next newline so a
/// hostile or buggy client cannot wedge the connection.
///
/// # Errors
///
/// Propagates transport errors from the underlying reader.
pub fn read_frame(reader: &mut impl BufRead, max: usize) -> io::Result<Frame> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF.
            return Ok(if line.is_empty() {
                Frame::Eof
            } else {
                Frame::Line(line)
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                let overflow = line.len() + nl + 1 > max;
                if !overflow {
                    line.extend_from_slice(&buf[..nl]);
                }
                reader.consume(nl + 1);
                if overflow {
                    return Ok(Frame::Oversized);
                }
                if let Some(&b'\r') = line.last() {
                    line.pop();
                }
                return Ok(Frame::Line(line));
            }
            None => {
                let take = buf.len();
                if line.len() + take > max {
                    // Too long already: drop what we have and drain to the
                    // next newline (or EOF) to resynchronize.
                    reader.consume(take);
                    drain_to_newline(reader)?;
                    return Ok(Frame::Oversized);
                }
                line.extend_from_slice(buf);
                reader.consume(take);
            }
        }
    }
}

fn drain_to_newline(reader: &mut impl BufRead) -> io::Result<()> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                reader.consume(nl + 1);
                return Ok(());
            }
            None => {
                let n = buf.len();
                reader.consume(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_all_commands() {
        let requests = [
            Request {
                id: "a".into(),
                command: Command::Status,
            },
            Request {
                id: "b".into(),
                command: Command::Shutdown,
            },
            Request {
                id: "c".into(),
                command: Command::PredictLatency {
                    device: "edge".into(),
                    arch: vec![0, 9, 1, 3],
                },
            },
            Request {
                id: "d".into(),
                command: Command::Score {
                    device: "gpu-gv100".into(),
                    target_ms: 9.5,
                    arch: vec![4, 0],
                },
            },
            Request {
                id: "e".into(),
                command: Command::Search {
                    device: "cpu".into(),
                    target_ms: 24.0,
                    seed: u64::MAX >> 12,
                },
            },
            Request {
                id: "e2".into(),
                command: Command::Pareto {
                    devices: vec!["gpu".into(), "edge".into(), "cpu".into()],
                    target_ms: 24.0,
                    seed: 11,
                },
            },
            Request {
                id: "f".into(),
                command: Command::Infer {
                    arch: vec![3, 3, 0, 9],
                    input_seed: 7,
                    batch: 2,
                },
            },
        ];
        for req in requests {
            let line = req.encode();
            assert_eq!(Request::decode(line.as_bytes()).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let ok = Response::ok("x", Json::obj(vec![("latency_ms", Json::Num(8.25))]));
        assert_eq!(Response::decode(ok.encode().as_bytes()).unwrap(), ok);
        let fail = Response::fail("y", CODE_OVERLOADED, "queue full");
        assert_eq!(Response::decode(fail.encode().as_bytes()).unwrap(), fail);
    }

    #[test]
    fn decode_rejects_bad_fields_with_id() {
        let e = Request::decode(
            br#"{"id":"r1","cmd":"score","device":"edge","target_ms":-3,"arch":[]}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, CODE_BAD_REQUEST);
        assert_eq!(e.id.as_deref(), Some("r1"));
        assert!(e.detail.contains("target_ms"));

        let e = Request::decode(br#"{"id":"r2","cmd":"warp"}"#).unwrap_err();
        assert!(e.detail.contains("unknown cmd"));

        let e =
            Request::decode(br#"{"id":"r4","cmd":"infer","arch":[0,9],"batch":0}"#).unwrap_err();
        assert!(e.detail.contains("batch"));
        let e =
            Request::decode(br#"{"id":"r5","cmd":"infer","arch":[0,9],"batch":999}"#).unwrap_err();
        assert!(e.detail.contains("batch"));

        let e = Request::decode(br#"{"id":"p1","cmd":"pareto","target_ms":5}"#).unwrap_err();
        assert!(e.detail.contains("devices"));
        assert_eq!(e.id.as_deref(), Some("p1"));
        let e = Request::decode(br#"{"id":"p2","cmd":"pareto","devices":[],"target_ms":5}"#)
            .unwrap_err();
        assert!(e.detail.contains("devices"));
        let e = Request::decode(br#"{"id":"p3","cmd":"pareto","devices":[1,2],"target_ms":5}"#)
            .unwrap_err();
        assert!(e.detail.contains("strings"));
        let e = Request::decode(br#"{"id":"p4","cmd":"pareto","devices":["edge"],"target_ms":0}"#)
            .unwrap_err();
        assert!(e.detail.contains("target_ms"));
        let e = Request::decode(
            br#"{"id":"p5","cmd":"pareto","devices":["a","a","a","a","a","a","a","a","a"],"target_ms":5}"#,
        )
        .unwrap_err();
        assert!(e.detail.contains("1..=8"));

        let e = Request::decode(br#"{"v":2,"id":"r3","cmd":"status"}"#).unwrap_err();
        assert!(e.detail.contains("version"));

        let e = Request::decode(b"[1,2]").unwrap_err();
        assert!(e.detail.contains("object"));
        assert_eq!(e.id, None);
    }

    #[test]
    fn frames_split_on_newlines() {
        let mut input: &[u8] = b"one\r\ntwo\nthree";
        assert_eq!(
            read_frame(&mut input, 64).unwrap(),
            Frame::Line(b"one".to_vec())
        );
        assert_eq!(
            read_frame(&mut input, 64).unwrap(),
            Frame::Line(b"two".to_vec())
        );
        assert_eq!(
            read_frame(&mut input, 64).unwrap(),
            Frame::Line(b"three".to_vec())
        );
        assert_eq!(read_frame(&mut input, 64).unwrap(), Frame::Eof);
    }

    #[test]
    fn oversized_frame_resynchronizes() {
        let mut data = vec![b'x'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut input: &[u8] = &data;
        assert_eq!(read_frame(&mut input, 16).unwrap(), Frame::Oversized);
        assert_eq!(
            read_frame(&mut input, 16).unwrap(),
            Frame::Line(b"ok".to_vec())
        );
        assert_eq!(read_frame(&mut input, 16).unwrap(), Frame::Eof);
    }

    #[test]
    fn oversized_final_line_without_newline_is_oversized() {
        let data = vec![b'y'; 50];
        let mut input: &[u8] = &data;
        assert_eq!(read_frame(&mut input, 16).unwrap(), Frame::Oversized);
        assert_eq!(read_frame(&mut input, 16).unwrap(), Frame::Eof);
    }
}
