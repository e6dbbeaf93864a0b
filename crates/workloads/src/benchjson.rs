//! Per-PR benchmark trajectory tracking (the ROADMAP's "wall-clock
//! benchmark suite" regression harness).
//!
//! Every PR records its headline wall-clock numbers in a `BENCH_PR<n>.json`
//! file at the repository root. This module parses those files (with a
//! registry-free, in-tree JSON reader — the build has no `serde`), extracts
//! each PR's **reference throughput** — the best `stable_tuples_per_s`
//! figure recorded anywhere in the file, which every PR since PR 2 reports
//! for the realtime reference configuration — and renders the trajectory.
//! [`regression`] compares the newest two PRs that carry the metric and
//! flags a drop beyond the tolerance; the `bench_report` binary turns that
//! into a CI failure.

use crate::report::TextTable;

/// A parsed JSON value (the subset the bench files use — which is all of
/// JSON except exotic number forms).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
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
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
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

    fn eat(&mut self, expected: u8) -> Result<(), String> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", expected as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|_| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
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
            .ok_or_else(|| self.err("invalid number"))
    }
}

/// Parses one JSON document.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

/// Collects every number stored under a key named `key`, anywhere in the
/// document. The value may be a plain number (PR 2's flat rows) or an
/// object of per-configuration numbers (PR 3's `{K1,K2,K4}` sweeps) — all
/// numeric leaves count.
fn rates_under(j: &Json, key: &str, under_key: bool, out: &mut Vec<f64>) {
    match j {
        Json::Num(n) if under_key => out.push(*n),
        Json::Arr(items) => {
            for item in items {
                rates_under(item, key, under_key, out);
            }
        }
        Json::Obj(fields) => {
            for (k, v) in fields {
                rates_under(v, key, under_key || k == key, out);
            }
        }
        _ => {}
    }
}

/// One PR's point on the benchmark trajectory.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// PR number (from the file's `pr` field, falling back to the digits in
    /// the file name).
    pub pr: u64,
    /// Source file name.
    pub file: String,
    /// The file's `reference_stable_tuples_per_s` (the agreed reference
    /// configuration), or failing that the best `stable_tuples_per_s`
    /// recorded anywhere in the file. `None` for files that predate the
    /// realtime benchmark (PR 1's micro-bench baseline).
    pub rate: Option<f64>,
    /// The best `saturation_stable_tuples_per_s` recorded anywhere in the
    /// file — the K=4 clean capacity knee, a historical record of the
    /// retired `realtime_pipeline saturate` mode. `None` for PRs that
    /// predate the saturation sweep.
    pub saturation: Option<f64>,
    /// The file's own description of what it measured.
    pub benchmark: Option<String>,
}

/// Builds the trajectory from `(file name, contents)` pairs, sorted by PR
/// number.
pub fn trajectory(files: &[(String, String)]) -> Result<Vec<BenchPoint>, String> {
    let mut points = Vec::with_capacity(files.len());
    for (name, contents) in files {
        let doc = parse(contents).map_err(|e| format!("{name}: {e}"))?;
        let pr = doc
            .get("pr")
            .and_then(Json::as_num)
            .map(|n| n as u64)
            .or_else(|| {
                let digits: String = name.chars().filter(char::is_ascii_digit).collect();
                digits.parse().ok()
            })
            .ok_or_else(|| format!("{name}: no PR number in file or name"))?;
        // Prefer an explicit reference figure (the number measured at the
        // agreed reference configuration); fall back to the best
        // stable_tuples_per_s recorded anywhere.
        let rate = doc
            .get("reference_stable_tuples_per_s")
            .and_then(Json::as_num)
            .or_else(|| {
                let mut rates = Vec::new();
                rates_under(&doc, "stable_tuples_per_s", false, &mut rates);
                rates.iter().copied().reduce(f64::max)
            });
        let saturation = {
            let mut rates = Vec::new();
            rates_under(&doc, "saturation_stable_tuples_per_s", false, &mut rates);
            rates.iter().copied().reduce(f64::max)
        };
        points.push(BenchPoint {
            pr,
            file: name.clone(),
            rate,
            saturation,
            benchmark: doc
                .get("benchmark")
                .or_else(|| doc.get("description"))
                .and_then(Json::as_str)
                .map(str::to_string),
        });
    }
    points.sort_by_key(|p| p.pr);
    Ok(points)
}

/// Renders the trajectory as a table (one row per PR, with the change
/// relative to the previous PR that carried the metric).
pub fn render_trajectory(points: &[BenchPoint]) -> String {
    let mut t = TextTable::new(&[
        "pr",
        "file",
        "stable tuples/s",
        "vs prev",
        "saturation/s",
        "benchmark",
    ]);
    let mut prev: Option<f64> = None;
    for p in points {
        let (rate, delta) = match p.rate {
            Some(r) => {
                let delta = match prev {
                    Some(pr0) if pr0 > 0.0 => format!("{:+.1}%", (r / pr0 - 1.0) * 100.0),
                    _ => "-".to_string(),
                };
                prev = Some(r);
                (format!("{r:.0}"), delta)
            }
            None => ("-".to_string(), "-".to_string()),
        };
        let saturation = match p.saturation {
            Some(s) => format!("{s:.0}"),
            None => "-".to_string(),
        };
        t.row(vec![
            format!("{}", p.pr),
            p.file.clone(),
            rate,
            delta,
            saturation,
            p.benchmark
                .clone()
                .unwrap_or_default()
                .chars()
                .take(60)
                .collect(),
        ]);
    }
    t.render()
}

/// Compares the two newest PRs carrying the reference metric; returns the
/// pair if the newest regressed by more than `tolerance` (e.g. `0.15`).
pub fn regression(points: &[BenchPoint], tolerance: f64) -> Option<(BenchPoint, BenchPoint)> {
    metric_regression(points, tolerance, |p| p.rate)
}

/// Same check for the saturation capacity knee
/// (`saturation_stable_tuples_per_s`): compares the two newest PRs that
/// recorded one and returns the pair if capacity dropped beyond the
/// tolerance. PRs that predate the saturation sweep are skipped, not
/// treated as zero.
pub fn saturation_regression(
    points: &[BenchPoint],
    tolerance: f64,
) -> Option<(BenchPoint, BenchPoint)> {
    metric_regression(points, tolerance, |p| p.saturation)
}

fn metric_regression(
    points: &[BenchPoint],
    tolerance: f64,
    metric: impl Fn(&BenchPoint) -> Option<f64>,
) -> Option<(BenchPoint, BenchPoint)> {
    let with_rate: Vec<&BenchPoint> = points.iter().filter(|p| metric(p).is_some()).collect();
    let [.., prev, last] = with_rate[..] else {
        return None;
    };
    let (p, l) = (metric(prev).unwrap(), metric(last).unwrap());
    if l < p * (1.0 - tolerance) {
        Some(((*prev).clone(), (*last).clone()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_file_shapes() {
        let doc = parse(
            r#"{
              "pr": 3,
              "benchmark": "realtime",
              "results": [
                {"offered_rate_tuples_per_s": 12000,
                 "stable_tuples_per_s": {"K1": 8099, "K2": 11699, "K4": 11699}},
                {"stable_tuples_per_s": 28874, "note": "probe \"quoted\" é"}
              ]
            }"#,
        )
        .unwrap();
        assert_eq!(doc.get("pr").and_then(Json::as_num), Some(3.0));
        let mut rates = Vec::new();
        rates_under(&doc, "stable_tuples_per_s", false, &mut rates);
        rates.sort_by(f64::total_cmp);
        assert_eq!(rates, vec![8099.0, 11699.0, 11699.0, 28874.0]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    fn file(pr: u64, rate: Option<f64>) -> (String, String) {
        let body = match rate {
            Some(r) => format!("{{\"pr\": {pr}, \"results\": [{{\"stable_tuples_per_s\": {r}}}]}}"),
            None => format!("{{\"pr\": {pr}, \"benches\": {{}}}}"),
        };
        (format!("BENCH_PR{pr}.json"), body)
    }

    #[test]
    fn explicit_reference_beats_the_best_number_in_the_file() {
        // A saturation probe records a higher rate than the reference
        // configuration; the explicit field must win.
        let points = trajectory(&[(
            "BENCH_PR2.json".to_string(),
            r#"{"pr": 2, "reference_stable_tuples_per_s": 29249,
                "results": [{"stable_tuples_per_s": 67497}]}"#
                .to_string(),
        )])
        .unwrap();
        assert_eq!(points[0].rate, Some(29249.0));
    }

    #[test]
    fn trajectory_sorts_and_extracts() {
        let points = trajectory(&[
            file(3, Some(28874.0)),
            file(1, None),
            file(2, Some(29249.0)),
        ])
        .unwrap();
        assert_eq!(
            points.iter().map(|p| p.pr).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(points[0].rate, None);
        assert_eq!(points[2].rate, Some(28874.0));
        let rendered = render_trajectory(&points);
        assert!(rendered.contains("28874"));
        assert!(rendered.contains("-1.3%"), "delta column: {rendered}");
    }

    #[test]
    fn saturation_column_and_regression() {
        // The saturation knee is a distinct metric: it must not leak into
        // the reference column, and it gets its own regression check.
        let sat_file = |pr: u64, sat: f64| {
            (
                format!("BENCH_PR{pr}.json"),
                format!(
                    "{{\"pr\": {pr}, \"reference_stable_tuples_per_s\": 29100, \
                     \"results\": [{{\"saturation_stable_tuples_per_s\": {sat}}}]}}"
                ),
            )
        };
        let points = trajectory(&[file(9, Some(29200.0)), sat_file(10, 250000.0)]).unwrap();
        assert_eq!(points[0].saturation, None);
        assert_eq!(points[1].rate, Some(29100.0), "saturation must not leak");
        assert_eq!(points[1].saturation, Some(250000.0));
        let rendered = render_trajectory(&points);
        assert!(rendered.contains("250000"), "{rendered}");
        // Only one PR carries the metric: nothing to compare yet.
        assert!(saturation_regression(&points, 0.15).is_none());
        let dropped = trajectory(&[sat_file(10, 250000.0), sat_file(11, 150000.0)]).unwrap();
        let (prev, last) = saturation_regression(&dropped, 0.15).expect("-40% must flag");
        assert_eq!((prev.pr, last.pr), (10, 11));
        assert!(regression(&dropped, 0.15).is_none(), "reference held");
    }

    #[test]
    fn regression_flags_only_beyond_tolerance() {
        let ok = trajectory(&[file(2, Some(29000.0)), file(3, Some(28000.0))]).unwrap();
        assert!(regression(&ok, 0.15).is_none(), "-3.4% is within tolerance");
        let bad = trajectory(&[file(2, Some(29000.0)), file(3, Some(20000.0))]).unwrap();
        let (prev, last) = regression(&bad, 0.15).expect("-31% must flag");
        assert_eq!((prev.pr, last.pr), (2, 3));
        // Files without the metric are skipped, not treated as zero.
        let sparse = trajectory(&[
            file(2, Some(29000.0)),
            file(3, None),
            file(4, Some(28000.0)),
        ])
        .unwrap();
        assert!(regression(&sparse, 0.15).is_none());
    }
}
