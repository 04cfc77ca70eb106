//! Spans recorded by the benchmark itself around calls into each layer's
//! public functions. Only the traced run records them; they are kept in
//! memory and written out when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One closed span. `parent` is 0 for a root; spans of one round or one
/// request share `trace`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start: Instant,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Every span already handed out by [`Tracer::take`].
    archive: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            archive: Mutex::new(Vec::new()),
        }
    }

    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: u64, trace: u64) -> Open {
        // relaxed: the counter only hands out unique ids.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent,
            trace,
            name,
            start: Instant::now(),
        }
    }

    /// Ends a span and returns its duration in milliseconds.
    pub fn close(&self, open: Open) -> f64 {
        let end = Instant::now();
        self.push(open.id, open.parent, open.trace, open.name, open.start, end);
        (end - open.start).as_secs_f64() * 1e3
    }

    /// Runs `f` inside a span; `f` receives the span id for its children.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: u64,
        trace: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let open = self.open(name, parent, trace);
        let id = open.id;
        let out = f(id);
        self.close(open);
        out
    }

    /// Records a span whose ends were timed elsewhere; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        // relaxed: as in `open`.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, parent, trace, name, start, end);
        id
    }

    fn push(
        &self,
        id: u64,
        parent: u64,
        trace: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            trace,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        // Poison recovery: a span list is append-only, so a panicked
        // recorder cannot leave it torn.
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Returns every span recorded since the last call, in id order, and
    /// keeps a copy for [`Tracer::archived`].
    pub fn take(&self) -> Vec<Span> {
        let mut spans =
            std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner));
        spans.sort_by_key(|s| s.id);
        self.archive
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(spans.iter().cloned());
        spans
    }

    /// Every span handed out by [`Tracer::take`] so far.
    pub fn archived(&self) -> Vec<Span> {
        self.archive
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Sum of span durations, milliseconds.
    pub total_ms: f64,
    /// Sum of self times: each span's duration minus the part of its
    /// interval covered by its children, milliseconds.
    pub self_ms: f64,
}

/// Totals for every span name in `spans`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.total_ms += s.duration_ns() as f64 / 1e6;
        t.self_ms += s.duration_ns().saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Writes `spans` as tab-separated lines (id, parent, trace, name,
/// start_ns, end_ns), creating the parent directory if needed.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\ttrace\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover [10, 40) of the parent's [0, 100).
        let spans = vec![
            span(1, 0, "round", 0, 100),
            span(2, 1, "client", 10, 30),
            span(3, 1, "client", 20, 40),
        ];
        let t = totals(&spans);
        assert_eq!(t["round"].self_ms, 70.0 / 1e6);
        assert_eq!(t["client"].total_ms, 40.0 / 1e6);
    }
}
