//! The traced run's span recorder: spans are kept in memory (name, start,
//! end, parent, one id per customer), self time is computed from them, and
//! the whole set is written out as JSON lines at exit.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use doppler_dma::json::Json;

use crate::common::one_line;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The customer (or Table 4 cell) this span belongs to.
    pub owner: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub calls: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Accumulators kept beside the spans (e.g. curve sample x SKU pairs).
    counts: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn add(&mut self, counter: &'static str, n: f64) {
        *self.counts.entry(counter).or_default() += n;
    }

    pub fn count(&self, counter: &str) -> f64 {
        self.counts.get(counter).copied().unwrap_or(0.0)
    }

    /// The duration of a closed span, in ns.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn open(&mut self, name: &'static str, owner: u32) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, owner, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, owner: u32, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, owner);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of it covered by
    /// its children (the union of their intervals, clipped to the span).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(s, e) in kids.iter() {
                    let s = s.max(reach);
                    let e = e.min(span.end_ns);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Calls and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(span.name).or_default();
            t.calls += 1;
            t.self_ns += self_ns;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let num = |n: u64| Json::Num(n as f64);
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let row = Json::Obj(vec![
                ("id".into(), num(id as u64)),
                ("name".into(), Json::Str(span.name.into())),
                ("owner".into(), num(span.owner.into())),
                ("parent".into(), span.parent.map_or(Json::Null, |p| num(p as u64))),
                ("start_ns".into(), num(span.start_ns)),
                ("end_ns".into(), num(span.end_ns)),
                ("self_ns".into(), num(self_ns)),
            ]);
            writeln!(out, "{}", one_line(&row))?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(spans: Vec<Span>) -> Recorder {
        Recorder { origin: Instant::now(), spans, open: Vec::new(), counts: BTreeMap::new() }
    }

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, owner: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let r = recorder(vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60), // overlaps a: union 10..60
            span("c", Some(1), 15, 20),
        ]);
        assert_eq!(r.self_ns(), vec![50, 25, 30, 5]);
        let totals = r.totals();
        assert_eq!(totals["root"], LayerTotal { calls: 1, self_ns: 50 });
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut r = Recorder::new();
        let outer = r.open("outer", 7);
        r.time("inner", 7, || ());
        r.close(outer);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
    }
}
