//! In-memory spans around the calls into each layer's public functions.
//!
//! Spans are recorded from the benchmark's own files only (nothing inside
//! `crates/` is instrumented), kept in memory, and written as JSON lines
//! when the run ends. A layer's self time is its span minus the part its
//! direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the root span wrapped around each tick; its self time is the
/// benchmark's own glue, the part of a tick no layer accounts for.
pub const TICK: &str = "tick";

/// Whether a traced run records spans during slice `index`: `toggle_every`
/// slices on, as many off (`Workload::trace_toggle_slices`). Adjacent
/// groups see the same host regime, and a group spans a whole period of
/// the workload's ticks, so both sides get the same mix of work.
pub fn records_slice(index: u32, toggle_every: usize) -> bool {
    (index as usize / toggle_every).is_multiple_of(2)
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer function the span wraps, e.g. `controller.offer_at`.
    pub name: &'static str,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Tick the span belongs to: the identifier spans of one tick share.
    pub tick: u32,
}

/// Handle returned by [`Tracer::enter`]; `None` while recording is off.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<u32>);

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    /// Seconds the caller asked to leave out (probes inside a tick).
    skipped_s: f64,
    recording: bool,
    tick: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a tracer that is not recording.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            skipped_s: 0.0,
            recording: false,
            tick: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off. Only called between ticks, so no span
    /// is ever half recorded.
    pub fn set_recording(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.recording = on;
    }

    /// Whether spans are being recorded.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Leaves the `seconds` that just passed out of every open span: the
    /// calibrated clock's probe ran inside a tick.
    pub fn skip(&mut self, seconds: f64) {
        self.skipped_s += seconds;
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() - self.skipped_s
    }

    /// Sets the identifier the following spans share.
    pub fn set_tick(&mut self, tick: u32) {
        self.tick = tick;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.recording {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let now = self.now();
        self.spans.push(Span {
            name,
            start_s: now,
            end_s: now,
            parent,
            tick: self.tick,
        });
        Open(Some(id))
    }

    /// Closes the span `open` refers to.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id));
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_s = now;
        }
    }

    /// Wraps `f` in a span. For calls that do not themselves need the
    /// tracer; nested spans use [`Tracer::enter`]/[`Tracer::exit`].
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the create, write or flush that failed.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent},\"tick\":{}}}",
                s.name, s.start_s, s.end_s, s.tick
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their self times (duration minus direct children), seconds.
    pub self_s: f64,
}

/// Folds spans into per-name totals. A span's self time is its duration
/// minus the durations of its direct children; children of one parent are
/// sequential on the benchmark's single thread, so they never overlap.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_s = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_s[p as usize] += s.end_s - s.start_s;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_s) {
        let t = out.entry(s.name).or_default();
        let dur = s.end_s - s.start_s;
        t.count += 1;
        t.total_s += dur;
        t.self_s += dur - children;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_s,
            end_s,
            parent,
            tick: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // tick [0, 10] ⊃ offer [1, 5] ⊃ append [2, 3]; tick ⊃ classify [6, 9].
        let spans = vec![
            span(TICK, 0.0, 10.0, None),
            span("offer", 1.0, 5.0, Some(0)),
            span("append", 2.0, 3.0, Some(1)),
            span("classify", 6.0, 9.0, Some(0)),
        ];
        let t = totals(&spans);
        // The grandchild is charged to its parent only, the two siblings
        // both to the root.
        assert_eq!(t[TICK].self_s, 10.0 - 4.0 - 3.0);
        assert_eq!(t["offer"].self_s, 4.0 - 1.0);
        assert_eq!(t["append"].self_s, 1.0);
        assert_eq!(t["classify"].self_s, 3.0);
        let self_sum: f64 = t.values().map(|n| n.self_s).sum();
        assert_eq!(self_sum, t[TICK].total_s);
    }

    #[test]
    fn repeated_names_accumulate() {
        let spans = vec![
            span(TICK, 0.0, 4.0, None),
            span("decode", 0.0, 1.0, Some(0)),
            span("decode", 1.0, 3.0, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["decode"].count, 2);
        assert_eq!(t["decode"].total_s, 3.0);
        assert_eq!(t[TICK].self_s, 1.0);
    }

    #[test]
    fn tracer_links_parents_and_skips_when_off() {
        let mut tr = Tracer::new();
        let off = tr.enter("ignored");
        tr.exit(off);
        assert!(tr.spans().is_empty());
        tr.set_recording(true);
        tr.set_tick(7);
        let root = tr.enter(TICK);
        tr.span("decode", || ());
        let offer = tr.enter("offer");
        tr.span("append", || ());
        tr.exit(offer);
        tr.exit(root);
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.tick == 7 && x.end_s >= x.start_s));
    }
}
