//! Trace exporters: Chrome `trace_event` JSON and a JSONL event stream.
//!
//! The Chrome format (loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>) wants timestamps in *microseconds*; our events
//! carry virtual nanoseconds, so `ts`/`dur` are emitted as fractional
//! microseconds to preserve sub-µs precision. `pid` is always 0 (one
//! simulated job); `tid` is the rank, so each rank gets its own track.

use std::fmt;
use std::io;

use crate::json::{write_escaped, write_fields, Json, JsonError};
use crate::trace::{intern_cat, TraceEvent};

/// Write `ns` as microseconds: an integer when whole, else the shortest
/// `f64` rendering of `ns / 1000` (the Chrome viewer's time unit).
fn write_us<W: fmt::Write>(out: &mut W, ns: u64) -> fmt::Result {
    if ns.is_multiple_of(1_000) {
        write!(out, "{}", ns / 1_000)
    } else {
        write!(out, "{}", ns as f64 / 1_000.0)
    }
}

/// The fields the two event kinds do not share through [`TraceEvent`]'s
/// accessors: the span duration (`None` for an instant) and the args.
fn dur_and_args(ev: &TraceEvent) -> (Option<u64>, &[(String, Json)]) {
    match ev {
        TraceEvent::Complete { dur_ns, args, .. } => (Some(*dur_ns), args),
        TraceEvent::Instant { args, .. } => (None, args),
    }
}

/// Write the `"cat":…,"name":…` pair shared by every exported event.
fn write_cat_name<W: fmt::Write>(out: &mut W, ev: &TraceEvent) -> fmt::Result {
    out.write_str("\"cat\":")?;
    write_escaped(out, ev.cat())?;
    out.write_str(",\"name\":")?;
    write_escaped(out, ev.name())
}

/// Write one event as a Chrome `trace_event` object, field by field.
fn write_chrome_event<W: fmt::Write>(out: &mut W, ev: &TraceEvent) -> fmt::Result {
    let (dur_ns, args) = dur_and_args(ev);
    let ph = if dur_ns.is_some() { "X" } else { "i" };
    write!(out, "{{\"ph\":\"{ph}\",")?;
    write_cat_name(out, ev)?;
    write!(out, ",\"pid\":0,\"tid\":{},\"ts\":", ev.rank())?;
    write_us(out, ev.ts_ns())?;
    match dur_ns {
        Some(dur_ns) => {
            out.write_str(",\"dur\":")?;
            write_us(out, dur_ns)?;
        }
        None => out.write_str(",\"s\":\"t\"")?,
    }
    out.write_str(",\"args\":")?;
    write_fields(out, args)?;
    out.write_char('}')
}

/// Write one event as a JSONL line (trailing newline included).
fn write_jsonl_event<W: fmt::Write>(out: &mut W, ev: &TraceEvent) -> fmt::Result {
    let (dur_ns, args) = dur_and_args(ev);
    let kind = if dur_ns.is_some() { "span" } else { "instant" };
    write!(out, "{{\"kind\":\"{kind}\",")?;
    write_cat_name(out, ev)?;
    write!(out, ",\"rank\":{},\"ts_ns\":{}", ev.rank(), ev.ts_ns())?;
    if let Some(dur_ns) = dur_ns {
        write!(out, ",\"dur_ns\":{dur_ns}")?;
    }
    out.write_str(",\"args\":")?;
    write_fields(out, args)?;
    out.write_str("}\n")
}

/// Stream a Chrome `trace_event` document of `events` into `out`.
fn write_chrome<W: fmt::Write>(out: &mut W, events: &[TraceEvent]) -> fmt::Result {
    out.write_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        write_chrome_event(out, ev)?;
    }
    out.write_str("]}")
}

/// Stream the JSONL rendering of `events` into `out`.
fn write_lines<W: fmt::Write>(out: &mut W, events: &[TraceEvent]) -> fmt::Result {
    events.iter().try_for_each(|ev| write_jsonl_event(out, ev))
}

/// Render events as a Chrome `trace_event` document:
/// `{"displayTimeUnit":"ns","traceEvents":[...]}`.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    write_chrome(&mut out, events).expect("writing to a String cannot fail");
    out
}

/// Render events as JSONL: one event object per line, same fields as the
/// Chrome export but with exact nanosecond `ts_ns`/`dur_ns` timestamps.
pub fn jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    write_lines(&mut out, events).expect("writing to a String cannot fail");
    out
}

/// Stream [`chrome_trace`]'s bytes into `w` without building the document.
pub(crate) fn write_chrome_trace(w: impl io::Write, events: &[TraceEvent]) -> io::Result<()> {
    IoSink::run(w, |out| write_chrome(out, events))
}

/// Stream [`jsonl`]'s bytes into `w` without building the document.
pub(crate) fn write_jsonl(w: impl io::Write, events: &[TraceEvent]) -> io::Result<()> {
    IoSink::run(w, |out| write_lines(out, events))
}

/// Adapts an [`io::Write`] to [`fmt::Write`] so the exporters can stream
/// into files; `fmt::Error` carries no payload, so the I/O error that
/// caused it is parked here and returned by [`IoSink::run`].
struct IoSink<W> {
    inner: W,
    error: Option<io::Error>,
}

impl<W: io::Write> IoSink<W> {
    fn run(inner: W, render: impl FnOnce(&mut Self) -> fmt::Result) -> io::Result<()> {
        let mut sink = IoSink { inner, error: None };
        match render(&mut sink) {
            Ok(()) => Ok(()),
            Err(fmt::Error) => Err(sink
                .error
                .unwrap_or_else(|| io::Error::other("formatter error"))),
        }
    }
}

impl<W: io::Write> fmt::Write for IoSink<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// A span decoded from an exported Chrome trace (round-trip direction).
/// Timestamps are back in nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedEvent {
    pub phase: char,
    pub cat: String,
    pub name: String,
    pub pid: u64,
    pub tid: u64,
    pub ts_ns: u64,
    pub dur_ns: u64,
    /// Span/instant attributes, in emission order.
    pub args: Vec<(String, Json)>,
}

/// Parse a Chrome `trace_event` document produced by [`chrome_trace`] back
/// into its events. Used by round-trip tests and by external tooling that
/// wants to post-process exported traces.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ParsedEvent>, JsonError> {
    let doc = Json::parse(text)?;
    let bad = |msg: &str| JsonError {
        pos: 0,
        msg: msg.to_string(),
    };
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing traceEvents array"))?;
    let mut out = Vec::with_capacity(events.len());
    for (idx, ev) in events.iter().enumerate() {
        let bad = |msg: &str| JsonError {
            pos: 0,
            msg: format!("traceEvents[{idx}]: {msg}"),
        };
        let field_str = |k: &str| {
            ev.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("missing string field `{k}`")))
        };
        let field_u64 = |k: &str| {
            ev.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(&format!("missing integer field `{k}`")))
        };
        // ts/dur may be fractional µs; decode to ns with rounding.
        let field_ns = |k: &str, required: bool| -> Result<u64, JsonError> {
            match ev.get(k).and_then(Json::as_f64) {
                Some(v) if v >= 0.0 => Ok((v * 1_000.0).round() as u64),
                Some(_) => Err(bad(&format!("negative time field `{k}`"))),
                None if required => Err(bad(&format!("missing time field `{k}`"))),
                None => Ok(0),
            }
        };
        let ph = field_str("ph")?;
        let args = match ev.get("args") {
            Some(Json::Obj(pairs)) => pairs.clone(),
            _ => Vec::new(),
        };
        out.push(ParsedEvent {
            phase: ph.chars().next().ok_or_else(|| bad("empty ph"))?,
            cat: field_str("cat")?,
            name: field_str("name")?,
            pid: field_u64("pid")?,
            tid: field_u64("tid")?,
            ts_ns: field_ns("ts", true)?,
            dur_ns: field_ns("dur", ph == "X")?,
            args,
        });
    }
    Ok(out)
}

/// Parse a JSONL stream produced by [`jsonl`] back into [`TraceEvent`]s,
/// preserving exact nanosecond timestamps, attribute order, and the event
/// order of the stream. Blank lines are skipped. Together with
/// [`analysis::analyze`](crate::analysis::analyze) this makes offline
/// profiling of dumped traces possible without the original `Recorder`.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, JsonError> {
    let bad = |msg: String| JsonError { pos: 0, msg };
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        // Attach the 1-based line number to any JSON-level error so a bad
        // line in a long dump is findable (the inner `pos` is the byte
        // offset *within* the line).
        let j = Json::parse(line).map_err(|e| JsonError {
            pos: e.pos,
            msg: format!("line {}: {}", lineno + 1, e.msg),
        })?;
        let field_str = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("line {}: missing string `{k}`", lineno + 1)))
        };
        let field_u64 = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("line {}: missing integer `{k}`", lineno + 1)))
        };
        let args = match j.get("args") {
            Some(Json::Obj(pairs)) => pairs.clone(),
            _ => Vec::new(),
        };
        let cat = intern_cat(&field_str("cat")?);
        let name = field_str("name")?;
        let rank = field_u64("rank")? as usize;
        let ts_ns = field_u64("ts_ns")?;
        match field_str("kind")?.as_str() {
            "span" => out.push(TraceEvent::Complete {
                cat,
                name,
                rank,
                ts_ns,
                dur_ns: field_u64("dur_ns")?,
                args,
            }),
            "instant" => out.push(TraceEvent::Instant {
                cat,
                name,
                rank,
                ts_ns,
                args,
            }),
            other => return Err(bad(format!("line {}: unknown kind `{other}`", lineno + 1))),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Snapshot;
    use crate::Recorder;
    use dynmpi_testkit::{check_n, Rng};

    // -- DOM oracle: the exporters' earlier rendering, one `Json` tree per
    // event serialized through `Display`. The streaming exporters must
    // reproduce it byte for byte.

    fn us(ns: u64) -> Json {
        if ns.is_multiple_of(1_000) {
            Json::UInt(ns / 1_000)
        } else {
            Json::Num(ns as f64 / 1_000.0)
        }
    }

    fn event_json(ev: &TraceEvent) -> Json {
        match ev {
            TraceEvent::Complete {
                cat,
                name,
                rank,
                ts_ns,
                dur_ns,
                args,
            } => Json::obj([
                ("ph", Json::str("X")),
                ("cat", Json::str(*cat)),
                ("name", Json::str(name.clone())),
                ("pid", Json::UInt(0)),
                ("tid", Json::UInt(*rank as u64)),
                ("ts", us(*ts_ns)),
                ("dur", us(*dur_ns)),
                ("args", Json::Obj(args.to_vec())),
            ]),
            TraceEvent::Instant {
                cat,
                name,
                rank,
                ts_ns,
                args,
            } => Json::obj([
                ("ph", Json::str("i")),
                ("cat", Json::str(*cat)),
                ("name", Json::str(name.clone())),
                ("pid", Json::UInt(0)),
                ("tid", Json::UInt(*rank as u64)),
                ("ts", us(*ts_ns)),
                ("s", Json::str("t")),
                ("args", Json::Obj(args.to_vec())),
            ]),
        }
    }

    fn oracle_chrome_trace(events: &[TraceEvent]) -> String {
        let items: Vec<Json> = events.iter().map(event_json).collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            ("traceEvents", Json::Arr(items)),
        ])
        .to_string()
    }

    fn oracle_jsonl(events: &[TraceEvent]) -> String {
        let mut out = String::new();
        for ev in events {
            let j = match ev {
                TraceEvent::Complete {
                    cat,
                    name,
                    rank,
                    ts_ns,
                    dur_ns,
                    args,
                } => Json::obj([
                    ("kind", Json::str("span")),
                    ("cat", Json::str(*cat)),
                    ("name", Json::str(name.clone())),
                    ("rank", Json::UInt(*rank as u64)),
                    ("ts_ns", Json::UInt(*ts_ns)),
                    ("dur_ns", Json::UInt(*dur_ns)),
                    ("args", Json::Obj(args.to_vec())),
                ]),
                TraceEvent::Instant {
                    cat,
                    name,
                    rank,
                    ts_ns,
                    args,
                } => Json::obj([
                    ("kind", Json::str("instant")),
                    ("cat", Json::str(*cat)),
                    ("name", Json::str(name.clone())),
                    ("rank", Json::UInt(*rank as u64)),
                    ("ts_ns", Json::UInt(*ts_ns)),
                    ("args", Json::Obj(args.to_vec())),
                ]),
            };
            out.push_str(&j.to_string());
            out.push('\n');
        }
        out
    }

    // -- generators

    /// A string mixing plain ASCII with everything the writer must escape
    /// or pass through: quotes, backslashes, control characters, and
    /// multi-byte characters.
    fn text(rng: &mut Rng) -> String {
        const PIECES: &[&str] = &[
            "run",
            "comm/send",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "≈",
            "😀",
            " ",
            "/",
        ];
        let n = rng.range_usize(0, 6);
        (0..n)
            .map(|_| PIECES[rng.range_usize(0, PIECES.len())])
            .collect()
    }

    fn number(rng: &mut Rng) -> f64 {
        match rng.range_u64(0, 8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => rng.range_u64(0, 1 << 20) as f64,
            4 => -rng.range_f64(0.0, 1e6),
            5 => rng.range_f64(0.0, 1.0) * 1e-9,
            _ => rng.range_f64(-1e3, 1e3),
        }
    }

    fn value(rng: &mut Rng, depth: u32) -> Json {
        match rng.range_u64(0, if depth < 2 { 8 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.chance(0.5)),
            2 => Json::UInt(rng.next_u64() >> rng.range_u32(0, 64)),
            3 | 4 => Json::Num(number(rng)),
            5 => Json::Str(text(rng)),
            6 => Json::Arr(rng.vec_in(0, 4, |r| value(r, depth + 1))),
            _ => Json::Obj(args(rng, depth + 1)),
        }
    }

    fn args(rng: &mut Rng, depth: u32) -> Vec<(String, Json)> {
        rng.vec_in(0, 4, |r| (text(r), value(r, depth)))
    }

    /// Whole microseconds, fractional ones, and the u64 extremes.
    fn time_ns(rng: &mut Rng) -> u64 {
        match rng.range_u64(0, 4) {
            0 => rng.range_u64(0, 1 << 30) * 1_000,
            1 => rng.range_u64(0, 1 << 40),
            2 => rng.range_u64(0, 3),
            _ => u64::MAX - rng.range_u64(0, 2_000),
        }
    }

    fn event(rng: &mut Rng) -> TraceEvent {
        let cat = crate::trace::KNOWN_CATS[rng.range_usize(0, crate::trace::KNOWN_CATS.len())];
        let (name, rank, ts_ns) = (text(rng), rng.range_usize(0, 9), time_ns(rng));
        let args = args(rng, 0);
        if rng.chance(0.5) {
            TraceEvent::Complete {
                cat,
                name,
                rank,
                ts_ns,
                dur_ns: time_ns(rng),
                args,
            }
        } else {
            TraceEvent::Instant {
                cat,
                name,
                rank,
                ts_ns,
                args,
            }
        }
    }

    /// Does `j` survive JSON text unchanged? Non-finite numbers render as
    /// `null`, and an integral `Num` is read back as `UInt`.
    fn text_exact(j: &Json) -> bool {
        match j {
            Json::Num(f) => f.is_finite() && f.fract() != 0.0,
            Json::Arr(items) => items.iter().all(text_exact),
            Json::Obj(fields) => fields.iter().all(|(_, v)| text_exact(v)),
            _ => true,
        }
    }

    #[test]
    fn streaming_exporters_match_the_dom_oracle_byte_for_byte() {
        let dir = std::env::temp_dir().join(format!("dynmpi-obs-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        check_n("streaming_exporters_match_dom", 128, |rng| {
            let events = rng.vec_in(0, 24, event);
            assert_eq!(chrome_trace(&events), oracle_chrome_trace(&events));
            assert_eq!(jsonl(&events), oracle_jsonl(&events));

            let exact = events
                .iter()
                .all(|ev| dur_and_args(ev).1.iter().all(|(_, v)| text_exact(v)));
            if exact {
                assert_eq!(parse_jsonl(&jsonl(&events)).unwrap(), events);
            }

            // The file writers stream the recorder's sorted log.
            let rec = Recorder::new();
            rec.absorb(0, events, Snapshot::default());
            let sorted = rec.events();
            let (trace_path, jsonl_path) = (dir.join("trace.json"), dir.join("trace.jsonl"));
            rec.write_chrome_trace(&trace_path).unwrap();
            rec.write_jsonl(&jsonl_path).unwrap();
            let read = |p: &std::path::Path| std::fs::read_to_string(p).unwrap();
            assert_eq!(read(&trace_path), oracle_chrome_trace(&sorted));
            assert_eq!(read(&jsonl_path), oracle_jsonl(&sorted));
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Complete {
                cat: "sched",
                name: "run".to_string(),
                rank: 0,
                ts_ns: 1_500,
                dur_ns: 10_000,
                args: vec![("work".to_string(), Json::Num(5.5))],
            },
            TraceEvent::Instant {
                cat: "runtime",
                name: "load-change".to_string(),
                rank: 2,
                ts_ns: 2_000_000,
                args: vec![],
            },
        ]
    }

    #[test]
    fn chrome_trace_round_trips() {
        let text = chrome_trace(&sample());
        let parsed = parse_chrome_trace(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].phase, 'X');
        assert_eq!(parsed[0].cat, "sched");
        assert_eq!(parsed[0].ts_ns, 1_500); // fractional µs decoded exactly
        assert_eq!(parsed[0].dur_ns, 10_000);
        assert_eq!(parsed[1].phase, 'i');
        assert_eq!(parsed[1].tid, 2);
        assert_eq!(parsed[1].ts_ns, 2_000_000);
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let text = jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let j = Json::parse(line).unwrap();
            assert!(j.get("kind").is_some());
            assert!(j.get("ts_ns").unwrap().as_u64().is_some());
        }
    }

    #[test]
    fn parse_rejects_non_trace_documents() {
        assert!(parse_chrome_trace("[1,2,3]").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\": [{}]}").is_err());
    }

    #[test]
    fn jsonl_round_trips_events_exactly() {
        let events = sample();
        let parsed = parse_jsonl(&jsonl(&events)).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn chrome_parse_preserves_args_in_order() {
        let ev = TraceEvent::Instant {
            cat: "comm",
            name: "send".to_string(),
            rank: 1,
            ts_ns: 42,
            args: vec![
                ("peer".to_string(), Json::UInt(3)),
                ("seq".to_string(), Json::UInt(7)),
                ("bytes".to_string(), Json::UInt(1024)),
            ],
        };
        let parsed = parse_chrome_trace(&chrome_trace(std::slice::from_ref(&ev))).unwrap();
        assert_eq!(parsed[0].args.len(), 3);
        assert_eq!(parsed[0].args[0].0, "peer");
        assert_eq!(parsed[0].args[1], ("seq".to_string(), Json::UInt(7)));
        assert_eq!(parsed[0].args[2].1.as_u64(), Some(1024));
    }

    #[test]
    fn parse_jsonl_reports_line_numbers_for_bad_json() {
        // Two good lines, then a truncated third: the error must name
        // line 3, not panic or point at byte 0 of the whole stream.
        let mut text = jsonl(&sample());
        text.push_str("{\"kind\":\"span\",\"cat\":\"sched\"");
        let err = parse_jsonl(&text).unwrap_err();
        assert!(err.msg.contains("line 3"), "{err}");

        let err = parse_jsonl("{\"kind\":\"span\"}\ngarbage here\n").unwrap_err();
        assert!(err.msg.contains("line 1"), "{err}");
        let err = parse_jsonl("\n\ngarbage here\n").unwrap_err();
        assert!(err.msg.contains("line 3"), "{err}");
    }

    #[test]
    fn parse_jsonl_survives_truncated_and_binary_garbage() {
        // Truncation mid-escape, mid-number, mid-object — all errors with
        // a line number, never a panic.
        for frag in [
            "{\"kind\":\"span\",\"name\":\"a\\",
            "{\"kind\":\"span\",\"ts_ns\":12",
            "{",
            "\u{0}\u{1}\u{2}",
            "{\"kind\":\"instant\",\"cat\":\"x\",\"name\":\"n\",\"rank\":-1,\"ts_ns\":0}",
        ] {
            let err = parse_jsonl(frag).unwrap_err();
            assert!(err.msg.contains("line 1"), "{frag:?} -> {err}");
        }
    }

    #[test]
    fn chrome_parse_errors_name_the_offending_event() {
        let doc = r#"{"traceEvents":[
            {"ph":"i","cat":"a","name":"n","pid":0,"tid":0,"ts":1,"args":{}},
            {"ph":"X","cat":"a","name":"n","pid":0,"tid":0,"args":{}}
        ]}"#;
        let err = parse_chrome_trace(doc).unwrap_err();
        assert!(err.msg.contains("traceEvents[1]"), "{err}");
        assert!(err.msg.contains("`ts`"), "{err}");

        let neg = r#"{"traceEvents":[{"ph":"i","cat":"a","name":"n","pid":0,"tid":0,"ts":-5}]}"#;
        let err = parse_chrome_trace(neg).unwrap_err();
        assert!(err.msg.contains("traceEvents[0]"), "{err}");
        assert!(err.msg.contains("negative"), "{err}");
    }

    #[test]
    fn parse_jsonl_rejects_malformed_lines() {
        assert!(parse_jsonl(
            "{\"kind\":\"mystery\",\"cat\":\"x\",\"name\":\"n\",\"rank\":0,\"ts_ns\":0}"
        )
        .is_err());
        assert!(parse_jsonl("{\"kind\":\"span\"}").is_err());
        assert!(parse_jsonl("not json").is_err());
        assert_eq!(parse_jsonl("\n\n").unwrap().len(), 0);
    }
}
