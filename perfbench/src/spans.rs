//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start and an end (offsets from the tracer's epoch),
//! the span that was open when it started (its parent) and the id of the
//! op it belongs to. Spans stay in memory while the run measures and are
//! written out once, when it ends. A disabled tracer records nothing, so
//! an untraced pass runs the same calls with no bookkeeping around them.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Records spans while enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A handle to an open span (or to nothing, when tracing is off).
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open(Option<usize>);

impl Open {
    /// The span's id, when tracing is on.
    pub fn id(&self) -> Option<usize> {
        self.0
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off; spans open across a switch are still
    /// closed correctly.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.epoch.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end = self.epoch.elapsed();
            debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
            self.open.retain(|&o| o != id);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, op);
        let out = f();
        self.exit(open);
        out
    }

    /// Records a span measured elsewhere (on another thread) under the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                op,
                parent: self.open.last().copied(),
                start: start.saturating_duration_since(self.epoch),
                end: end.saturating_duration_since(self.epoch),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part of it its
    /// children cover. Children run one after another inside their parent,
    /// so their durations add.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// Total self time of the spans called `name` that sit under the span
    /// `under` (at any depth).
    pub fn self_total_under(&self, name: &str, under: usize) -> Duration {
        let selfs = self.self_times();
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.descends_from(i, under))
            .map(|i| selfs[i])
            .sum()
    }

    fn descends_from(&self, mut id: usize, ancestor: usize) -> bool {
        while let Some(p) = self.spans[id].parent {
            if p == ancestor {
                return true;
            }
            id = p;
        }
        false
    }

    /// Writes every span as one JSON line: name, op, parent, start, end and
    /// self time in microseconds.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","op":{},"parent":{parent},"start_us":{},"end_us":{},"self_us":{}}}"#,
                s.name,
                s.op,
                s.start.as_micros(),
                s.end.as_micros(),
                selfs[id].as_micros()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let outer = t.enter("outer", 1);
        t.time("inner", 1, || std::thread::sleep(Duration::from_millis(5)));
        t.time("inner", 1, || std::thread::sleep(Duration::from_millis(5)));
        t.exit(outer);
        let whole = t.spans()[0].duration();
        let inner: Duration = t.spans()[1..].iter().map(Span::duration).sum();
        assert_eq!(t.self_times()[0], whole - inner);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.self_total_under("inner", 0), inner);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let x = t.time("work", 7, || 41 + 1);
        assert_eq!(x, 42);
        assert!(t.spans().is_empty());
    }
}
