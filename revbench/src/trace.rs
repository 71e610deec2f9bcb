//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<what>`), start and end, the span that
//! caused it and the op it belongs to.  Spans stay in memory while an op
//! runs and are written out between programs and when the child ends, so
//! a child that dies loses only the spans of the program it died in.  With
//! tracing off, [`Tracer::span`] only calls its closure.

use crate::record::Record;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    pub fn to_record(&self) -> Record {
        Record::new("span")
            .with("id", self.id)
            .with("parent", self.parent.map_or_else(|| "-".to_string(), |p| p.to_string()))
            .with("op", self.op)
            .with("name", &self.name)
            .with("start", self.start_ns)
            .with("end", self.end_ns)
    }

    pub fn from_record(r: &Record) -> Span {
        Span {
            id: r.u64("id"),
            parent: r.str("parent").parse().ok(),
            op: r.u64("op"),
            name: r.str("name").to_string(),
            start_ns: r.u64("start"),
            end_ns: r.u64("end"),
        }
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u64,
    stack: Vec<u64>,
    /// Spans not drained yet; `spans[i]` has id `first_id + i`.
    spans: Vec<Span>,
    first_id: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            first_id: 0,
        }
    }

    /// Sets the op id that subsequent spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.first_id + self.spans.len() as u64;
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        self.spans[(id - self.first_id) as usize].end_ns = end_ns;
        out
    }

    /// Hands over the finished spans; ids keep counting up.
    ///
    /// # Panics
    ///
    /// If a span is still open: spans are drained between ops only.
    pub fn drain(&mut self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "spans are drained between ops only");
        self.first_id += self.spans.len() as u64;
        std::mem::take(&mut self.spans)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part of
/// its interval that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = span.parent.and_then(|p| index.get(&p)) {
            let parent = &spans[p];
            let (lo, hi) = (span.start_ns.max(parent.start_ns), span.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 0, name: name.to_string(), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "core.prove", 10, 70),
            span(2, Some(1), "core.check1", 20, 50),
            span(3, Some(0), "core.validate", 60, 90), // overlaps its sibling
            span(4, Some(2), "deep", 30, 40),
        ];
        assert_eq!(self_times(&spans), vec![100 - 80, 60 - 30, 30 - 10, 30, 10]);
    }

    #[test]
    fn tracer_records_nesting_and_ops() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let v = t.span("op", |t| t.span("lang.parse", |_| 41) + 1);
        assert_eq!(v, 42);
        let s = &t.drain();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent, s[1].op), (None, Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(s[1].layer(), "lang");
        assert_eq!(Span::from_record(&s[1].to_record()), s[1]);
        let self_ns = self_times(s);
        assert_eq!(self_ns[0] + self_ns[1], s[0].duration_ns());
        // Ids go on after a drain.
        t.span("next", |_| ());
        assert_eq!(t.drain()[0].id, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", |t| t.span("x", |_| 3)), 3);
        assert!(t.drain().is_empty());
    }
}
