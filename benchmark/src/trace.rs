//! Spans around the calls the harness makes into each layer, kept in
//! memory and written out when the run ends. The program under test is not
//! instrumented: a span here is what a caller of the layer's public
//! function saw.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The op (request, forward pass, training round) this span belongs to.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. With tracing off every call is a branch on
/// `enabled` and nothing is recorded, so the untraced phase runs the very
/// same loop.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    id_base: u64,
    spans: Vec<Span>,
}

impl Spans {
    /// `thread` keeps span ids distinct across the buffers of one run.
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> Self {
        Spans {
            enabled,
            epoch,
            id_base: thread << 40,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off from the next span on.
    pub fn enable(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    #[cfg(test)]
    pub fn off() -> Self {
        Spans::new(false, Instant::now(), 0)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pass the returned handle to [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, op: u64) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.id_base + self.spans.len() as u64;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    pub fn end(&mut self, handle: Option<u64>) {
        if let Some(id) = handle {
            let now = self.now_ns();
            self.spans[(id - self.id_base) as usize].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn within<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let h = self.begin(name, parent, op);
        let r = f();
        self.end(h);
        r
    }

    pub fn into_vec(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: how many, total duration, and self time (duration minus
/// the part its child spans cover), in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children_ns.entry(p).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s
            .duration_ns()
            .saturating_sub(children_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Share of the root (`op`) spans' time that their child spans cover.
pub fn child_cover(spans: &[Span], root: &str) -> f64 {
    let t = totals_by_name(spans);
    match t.get(root) {
        Some(r) if r.total_ns > 0 => 1.0 - r.self_ns as f64 / r.total_ns as f64,
        _ => 0.0,
    }
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.op, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, "op", 0, 100),
            span(1, Some(0), "generator.sleep", 0, 60),
            span(2, Some(0), "serve.infer_into", 60, 98),
            span(3, None, "op", 100, 150),
            span(4, Some(3), "serve.infer_into", 100, 150),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["op"],
            NameTotals {
                count: 2,
                total_ns: 150,
                self_ns: 2
            }
        );
        assert_eq!(t["serve.infer_into"].self_ns, 88);
        assert!((child_cover(&spans, "op") - 148.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let mut s = Spans::off();
        let h = s.begin("op", None, 1);
        assert_eq!(h, None);
        s.end(h);
        assert_eq!(s.within("x", h, 1, || 7), 7);
        assert!(s.into_vec().is_empty());
    }

    #[test]
    fn ids_are_distinct_across_threads_and_link_to_parents() {
        let epoch = Instant::now();
        let (mut a, mut b) = (Spans::new(true, epoch, 0), Spans::new(true, epoch, 1));
        let op = a.begin("op", None, 5);
        a.within("child", op, 5, || ());
        a.end(op);
        b.within("op", None, 6, || ());
        let (a, b) = (a.into_vec(), b.into_vec());
        assert_eq!(a[1].parent, Some(a[0].id));
        assert_ne!(a[0].id, b[0].id);
        assert!(a[0].end_ns >= a[1].end_ns);
    }
}
