//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer's public functions. They nest on one thread: the span
//! open when another begins is its parent, and a span's self time is its
//! duration minus the durations of its children. Spans are kept in memory and
//! written out once the run ends. A disabled tracer records nothing, so the
//! untraced run pays one branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Summed duration of this span's direct children.
    pub child_ns: u64,
}

impl Span {
    pub fn self_ns(&self) -> u64 {
        (self.end_ns - self.start_ns).saturating_sub(self.child_ns)
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (between rounds; no span may be open).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "span left open across a mode switch");
        self.enabled = enabled;
    }

    /// Opens a span named `name`; the innermost open span is its parent.
    /// Returns `None` when the tracer is disabled.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            child_ns: 0,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span `begin` returned (spans close innermost first).
    #[inline]
    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end_ns = end;
        let duration = end - span.start_ns;
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += duration;
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Self times (ns) of every span named `name`, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::self_ns)
            .collect()
    }

    /// Total self time (ns) of the spans named `name`.
    pub fn self_total(&self, name: &str) -> u64 {
        self.self_times(name).iter().sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span as one tab-separated line: id, parent, name,
    /// start, end and self time in ns.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        t.span("inner", || std::thread::sleep(Duration::from_millis(2)));
        t.end(outer);
        let inner = &t.spans[1];
        assert_eq!(inner.parent, Some(0));
        assert_eq!(t.spans[0].child_ns, inner.end_ns - inner.start_ns);
        assert!(t.self_total("inner") >= 2_000_000);
        assert!(t.self_total("outer") < t.self_total("inner"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.count("x"), 0);
    }
}
