//! Chrome `trace_event` export for [`Event`] streams.
//!
//! [`write_chrome_trace`] serializes a recorded run into the JSON Array
//! Format understood by `chrome://tracing` and Perfetto: each processor
//! becomes a track (`tid`), busy [`Span`](crate::EventKind::Span) intervals
//! become complete events (`"ph":"X"`) named after their component, and all
//! other events become instants (`"ph":"i"`). Timestamps are microseconds,
//! printed with six decimals so the picosecond clock round-trips exactly.
//!
//! The writer is hand-rolled (the workspace is dependency-free by design),
//! and [`parse_json`] is a matching minimal parser so tests — and the
//! `repro --trace-out` acceptance check — can validate emitted files
//! without a JSON crate.

use crate::events::{Event, EventKind};
use std::io::{self, Write};

/// Format picoseconds as microseconds with exact 6-digit fraction.
fn micros(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

fn args_json(e: &Event) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(t) = e.task {
        parts.push(format!("\"task\":{}", t.0));
    }
    if let Some(o) = e.object {
        parts.push(format!("\"object\":{}", o.0));
    }
    match e.kind {
        EventKind::TaskDispatched { stolen, locality } => {
            parts.push(format!("\"stolen\":{stolen}"));
            parts.push(format!("\"locality\":\"{locality:?}\""));
        }
        EventKind::ObjectRequest { bytes }
        | EventKind::MsgSend { bytes }
        | EventKind::MsgRecv { bytes }
        | EventKind::MsgDropped { bytes }
        | EventKind::MsgRetried { bytes }
        | EventKind::MsgDiscarded { bytes }
        | EventKind::CheckpointTaken { bytes }
        | EventKind::CheckpointRestored { bytes }
        | EventKind::ObjectRestored { bytes }
        | EventKind::PrefetchIssued { bytes }
        | EventKind::PrefetchHit { bytes }
        | EventKind::PrefetchStale { bytes } => parts.push(format!("\"bytes\":{bytes}")),
        EventKind::ProcStalled { dur_ps } => {
            parts.push(format!("\"stall_us\":{}", micros(dur_ps)));
        }
        EventKind::ObjectFetch { bytes, latency_ps } => {
            parts.push(format!("\"bytes\":{bytes}"));
            parts.push(format!("\"latency_us\":{}", micros(latency_ps)));
        }
        EventKind::ObjectBroadcast { bytes, receivers } => {
            parts.push(format!("\"bytes\":{bytes}"));
            parts.push(format!("\"receivers\":{receivers}"));
        }
        EventKind::AggregatedFetch { objects, bytes } => {
            parts.push(format!("\"bytes\":{bytes}"));
            parts.push(format!("\"objects\":{objects}"));
        }
        EventKind::PhaseStart { phase } | EventKind::PhaseEnd { phase } => {
            parts.push(format!("\"phase\":{phase}"));
        }
        _ => {}
    }
    format!("{{{}}}", parts.join(","))
}

/// Write `events` as a Chrome trace-event JSON document.
pub fn write_chrome_trace<W: Write>(w: &mut W, events: &[Event]) -> io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        match e.kind {
            EventKind::Span { component, dur_ps } => write!(
                w,
                "\n{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{}}}",
                component.name(),
                micros(e.time_ps),
                micros(dur_ps),
                e.proc,
                args_json(e)
            )?,
            _ => write!(
                w,
                "\n{{\"name\":\"{}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{}}}",
                e.kind.name(),
                micros(e.time_ps),
                e.proc,
                args_json(e)
            )?,
        }
    }
    writeln!(w, "\n]}}")
}

/// A parsed JSON value (minimal: enough to validate trace files).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The parser
/// recurses once per level, so without a bound a long run of `[` would
/// overflow the stack; the documents it reads nest 3-5 deep.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Strings support the standard escapes except
/// `\uXXXX` (the trace writer never emits non-ASCII). Any input gives a
/// value or an error, never a panic.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Parse the value at `pos`, itself nested `depth` levels deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => return Err(format!("unsupported escape '\\{}'", other as char)),
                });
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through unchanged.
                let ch_len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let s = std::str::from_utf8(&b[*pos..*pos + ch_len])
                    .map_err(|_| "invalid utf-8 in string")?;
                out.push_str(s);
                *pos += ch_len;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        members.push((key, parse_value(b, pos, depth)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Validate a Chrome trace-event document produced by
/// [`write_chrome_trace`]: the shape is right, timestamps are
/// non-negative, every complete event carries a duration, and processor
/// tracks are in range. Returns the number of trace events.
pub fn validate_chrome_trace(text: &str, procs: usize) -> Result<usize, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    for (i, e) in events.iter().enumerate() {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: no name"))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: no ph"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: no ts"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: no tid"))?;
        if ts < 0.0 {
            return Err(format!("event {i} ({name}): negative ts"));
        }
        if tid < 0.0 || tid >= procs as f64 {
            return Err(format!(
                "event {i} ({name}): tid {tid} out of range 0..{procs}"
            ));
        }
        match ph {
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: X without dur"))?;
                if dur <= 0.0 {
                    return Err(format!("event {i} ({name}): non-positive dur"));
                }
            }
            "i" => {}
            other => return Err(format!("event {i} ({name}): unexpected ph {other:?}")),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Component, Sink};
    use crate::ids::TaskId;
    use proptest::prelude::*;

    fn sample_events() -> Vec<Event> {
        let mut s: Vec<Event> = Vec::new();
        s.emit_task(0, 0, EventKind::TaskCreated, TaskId(0));
        s.span(0, 0, Component::Mgmt, 1_500_000, Some(TaskId(0)));
        s.emit_task(
            1_500_000,
            1,
            EventKind::TaskDispatched {
                stolen: false,
                locality: crate::events::Locality::Hit,
            },
            TaskId(0),
        );
        s.span(1_500_000, 1, Component::App, 2_000_000, Some(TaskId(0)));
        s
    }

    #[test]
    fn micros_is_exact() {
        assert_eq!(micros(0), "0.000000");
        assert_eq!(micros(1_234_567), "1.234567");
        assert_eq!(micros(1_000_000), "1.000000");
    }

    #[test]
    fn written_trace_validates() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &sample_events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let n = validate_chrome_trace(&text, 2).unwrap();
        assert_eq!(n, 4);
    }

    #[test]
    fn validator_rejects_out_of_range_tid() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &sample_events()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(validate_chrome_trace(&text, 1).is_err());
    }

    #[test]
    fn parser_roundtrips_structures() {
        let v = parse_json(r#"{"a":[1,2.5,-3],"b":{"c":"x\ny","d":true},"e":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("[1,").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse_json(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains(&format!("byte {MAX_DEPTH}")), "{err}");
        assert!(parse_json(&"{\"a\":".repeat(100_000)).is_err());
        // The limit itself still parses.
        let nested = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&nested).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any text, and any one-byte corruption of a written trace, parses
        /// and validates to `Ok` or `Err`: the decoders never panic.
        #[test]
        fn decoders_never_panic(
            noise in prop::collection::vec(any::<u8>(), 0..64),
            at in any::<usize>(),
            byte in 0u8..128,
        ) {
            // Structural bytes weighted up, so short inputs reach deep into
            // the grammar; any byte sequence, made valid UTF-8.
            let alphabet = b"[]{}\",:0123456789.eE-+tfnul\\ \n\xc3\xa9";
            let mapped: Vec<u8> = noise
                .iter()
                .map(|&n| if n < 160 { alphabet[n as usize % alphabet.len()] } else { n })
                .collect();
            let text = String::from_utf8_lossy(&mapped);
            let _ = parse_json(&text);
            let _ = validate_chrome_trace(&text, 2);
            let mut trace = Vec::new();
            write_chrome_trace(&mut trace, &sample_events()).unwrap();
            let len = trace.len();
            trace[at % len] = byte;
            let text = String::from_utf8(trace).expect("one ASCII byte keeps it UTF-8");
            let _ = parse_json(&text);
            let _ = validate_chrome_trace(&text, 2);
        }
    }

    #[test]
    fn empty_event_list_is_valid() {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &[]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(validate_chrome_trace(&text, 1).unwrap(), 0);
    }
}
