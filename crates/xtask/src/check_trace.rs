//! `check-trace`: validates a Chrome Trace Event Format file produced by
//! `atm-eval --trace`.
//!
//! The check is structural, not visual: the trace must be a non-empty JSON
//! array of event objects, every event must carry the required `ph` /
//! `pid` / `tid` keys (with `ts` on every non-metadata event), and the
//! timestamps of each `(pid, tid)` track must be non-decreasing in file
//! order — the contract `ChromeTraceBuilder` documents and Perfetto's
//! importer relies on. Every layer stamps on the one clock of the run's
//! observability handle, so the counter tracks (ready depth, store bytes)
//! must also fall inside the time span the interval tracks cover: a sample
//! outside it was stamped on some other clock. A task span whose `decision`
//! names a gate event (`gate_close` / `gate_reopen`) must carry the ledger
//! reading behind it (`spent_ns`, `earned_ns`, `allowance_ns`), or "why did
//! this type stop memoizing" cannot be answered from the trace. Like
//! `lint-sync`, the validator is deliberately
//! dependency-free: a ~100-line recursive-descent JSON parser is all the
//! format needs.

use std::collections::HashMap;

/// A parsed JSON value (numbers as `f64`, objects as ordered pairs).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if any.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: &str) -> String {
        format!("json error at byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {text}")))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?
            {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("bad escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our traces;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.error(&format!("bad escape \\{}", other as char))),
                    }
                }
                _ => {
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.error("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.error("bad number"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.error("unexpected end"))? {
            b'n' => self.literal("null", Json::Null),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.error("expected ',' or ']'")),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.value()?;
                    pairs.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.error("expected ',' or '}'")),
                    }
                }
            }
            _ => self.number(),
        }
    }
}

/// Parses a complete JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser::new(text);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing garbage after the document"));
    }
    Ok(value)
}

/// Validates Chrome-trace JSON text; `Ok` carries a short summary line.
pub fn check_trace(text: &str) -> Result<String, String> {
    let Json::Arr(events) = parse_json(text)? else {
        return Err("trace must be a JSON array of events".into());
    };
    if events.is_empty() {
        return Err("trace contains no events".into());
    }
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut timed = 0usize;
    let mut counters = 0usize;
    let mut complete = 0usize;
    // Span covered by the complete events, and the counter samples to hold
    // against it.
    let (mut span_start, mut span_end) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut counter_ts: Vec<(usize, f64)> = Vec::new();
    for (index, event) in events.iter().enumerate() {
        let at = |key: &str| -> Result<&Json, String> {
            event
                .get(key)
                .ok_or_else(|| format!("event {index}: missing required key \"{key}\""))
        };
        let ph = at("ph")?
            .as_str()
            .ok_or_else(|| format!("event {index}: \"ph\" must be a string"))?
            .to_string();
        let pid = at("pid")?
            .as_num()
            .ok_or_else(|| format!("event {index}: \"pid\" must be a number"))?
            as u64;
        let tid = at("tid")?
            .as_num()
            .ok_or_else(|| format!("event {index}: \"tid\" must be a number"))?
            as u64;
        // Metadata events carry no timestamp.
        if ph == "M" {
            continue;
        }
        let ts = at("ts")?
            .as_num()
            .ok_or_else(|| format!("event {index}: \"ts\" must be a number"))?;
        match ph.as_str() {
            "X" => {
                complete += 1;
                let dur = at("dur")?
                    .as_num()
                    .ok_or_else(|| format!("event {index}: \"dur\" must be a number"))?;
                span_start = span_start.min(ts);
                span_end = span_end.max(ts + dur);
                let args = event.get("args");
                let decision = args.and_then(|a| a.get("decision")).and_then(Json::as_str);
                if decision.is_some_and(|d| d.contains("gate_")) {
                    for key in ["spent_ns", "earned_ns", "allowance_ns"] {
                        if args
                            .and_then(|a| a.get(key))
                            .and_then(Json::as_num)
                            .is_none()
                        {
                            return Err(format!(
                                "event {index}: gate decision without a numeric \"{key}\""
                            ));
                        }
                    }
                }
            }
            "C" => {
                counters += 1;
                counter_ts.push((index, ts));
            }
            other => return Err(format!("event {index}: unsupported ph {other:?}")),
        }
        timed += 1;
        if let Some(&previous) = last_ts.get(&(pid, tid)) {
            if ts < previous {
                return Err(format!(
                    "event {index}: ts {ts} on track (pid {pid}, tid {tid}) \
                     goes backwards (previous {previous})"
                ));
            }
        }
        last_ts.insert((pid, tid), ts);
    }
    if complete == 0 {
        return Err("trace has no complete (ph \"X\") events".into());
    }
    if counters == 0 {
        return Err("trace has no counter (ph \"C\") events".into());
    }
    // Timestamps are microseconds printed to the nanosecond; half a
    // nanosecond absorbs the `ts + dur` rounding.
    const SLACK_US: f64 = 0.0005;
    for (index, ts) in counter_ts {
        if ts < span_start - SLACK_US || ts > span_end + SLACK_US {
            return Err(format!(
                "event {index}: counter sample at ts {ts} lies outside the span \
                 [{span_start}, {span_end}] of the interval tracks (stamped on another clock?)"
            ));
        }
    }
    Ok(format!(
        "{} events ({complete} spans, {counters} counter samples, {timed} timed) \
         across {} tracks, timestamps monotonic per track, counters inside the span",
        events.len(),
        last_ts.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_the_shapes_traces_use() {
        let doc = r#"[{"ph":"X","name":"a b","pid":1,"tid":2,"ts":1.5,"dur":0.25,
                       "args":{"decision":"tht_hit","tau":0.2,"ok":true,"x":null}}]"#;
        let parsed = parse_json(doc).unwrap();
        let Json::Arr(events) = &parsed else {
            panic!("not an array")
        };
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[0].get("ts").unwrap().as_num(), Some(1.5));
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("decision").unwrap().as_str(), Some("tht_hit"));
        assert_eq!(args.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(args.get("x"), Some(&Json::Null));
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert_eq!(parse_json(r#""aA\n""#).unwrap().as_str(), Some("aA\n"));
    }

    fn valid_trace() -> String {
        String::from(
            r#"[
            {"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"atm-eval"}},
            {"ph":"X","name":"Task Execution","pid":1,"tid":0,"ts":1.000,"dur":4.000},
            {"ph":"X","name":"square","pid":1,"tid":1000,"ts":1.200,"dur":3.600,
             "args":{"decision":"tht_hit","latency_ns":3600}},
            {"ph":"X","name":"stencil","pid":1,"tid":1001,"ts":1.300,"dur":2.000,
             "args":{"decision":"miss_execute+gate_close","tau":0.01,"p":0.5,
                     "spent_ns":8950000,"earned_ns":0,"allowance_ns":8920000,"latency_ns":2000}},
            {"ph":"X","name":"stencil","pid":1,"tid":1001,"ts":3.400,"dur":1.000,
             "args":{"decision":"gate_reopen",
                     "spent_ns":8950000,"earned_ns":0,"allowance_ns":1986000,"latency_ns":1000}},
            {"ph":"C","name":"ready_depth","pid":1,"tid":9998,"ts":1.500,"args":{"value":3}},
            {"ph":"C","name":"ready_depth","pid":1,"tid":9998,"ts":2.500,"args":{"value":2}}
            ]"#,
        )
    }

    #[test]
    fn accepts_a_well_formed_trace() {
        let summary = check_trace(&valid_trace()).unwrap();
        assert!(summary.contains("7 events"), "{summary}");
        assert!(summary.contains("2 counter samples"), "{summary}");
    }

    #[test]
    fn rejects_empty_missing_key_and_backwards_timestamps() {
        assert!(check_trace("[]").is_err());
        assert!(check_trace("{}").is_err());
        // Missing tid.
        let missing = r#"[{"ph":"X","name":"a","pid":1,"ts":1,"dur":1}]"#;
        assert!(check_trace(missing).unwrap_err().contains("tid"));
        // Backwards ts on one track.
        let backwards = valid_trace().replace("\"ts\":2.500", "\"ts\":0.500");
        assert!(check_trace(&backwards)
            .unwrap_err()
            .contains("goes backwards"));
        // ts fine when tracks interleave.
        assert!(check_trace(&valid_trace()).is_ok());
        // A gate decision that lost its ledger reading.
        let unexplained = valid_trace().replace("\"earned_ns\":0,\"allowance_ns\":1986000,", "");
        assert!(check_trace(&unexplained)
            .unwrap_err()
            .contains("gate decision without a numeric \"earned_ns\""));
        // A counter sample beyond the last interval: another clock's stamp.
        let misaligned = valid_trace().replace("\"ts\":2.500", "\"ts\":5000.000");
        assert!(check_trace(&misaligned)
            .unwrap_err()
            .contains("outside the span"));
    }

    #[test]
    fn requires_spans_and_counters() {
        let only_meta = r#"[{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"x"}}]"#;
        assert!(check_trace(only_meta).unwrap_err().contains("no complete"));
        let no_counters = r#"[{"ph":"X","name":"a","pid":1,"tid":0,"ts":1,"dur":1}]"#;
        assert!(check_trace(no_counters).unwrap_err().contains("no counter"));
    }
}
