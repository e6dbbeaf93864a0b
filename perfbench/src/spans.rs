//! In-memory spans for the traced replay: one span per call into a layer
//! (name, start, end, parent), kept in a vector and written out when the
//! run ends. A layer's self time is its spans' durations minus the parts
//! of those intervals covered by child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `engine.ingest`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.enter(name);
        let r = f(self);
        self.exit();
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-name totals: `(calls, total ns, self ns)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    // Children of one parent never overlap (a single-threaded recorder
    // nests strictly), so the covered part of a span is the sum of its
    // direct children's durations.
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += total;
        e.2 += total.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("tick", 0, 100, None),
            span("engine.ingest", 10, 40, Some(0)),
            span("types.route", 15, 25, Some(1)),
            span("engine.work", 50, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["tick"], (1, 100, 30));
        assert_eq!(t["engine.ingest"], (1, 30, 20));
        assert_eq!(t["types.route"], (1, 10, 10));
        assert_eq!(t["engine.work"], (1, 40, 40));
        // Self times partition the root interval.
        let sum: u64 = t.values().map(|v| v.2).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn recorder_nests_and_serializes() {
        let mut r = Recorder::new();
        let x = r.span("outer", |r| r.span("inner", |_| 7));
        assert_eq!(x, 7);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
