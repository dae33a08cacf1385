//! In-memory spans for the traced run.
//!
//! Each thread records into its own [`Tracer`]; the tracers share one time
//! origin, so spans from the client and server threads of one request line
//! up. A span carries a name, a start, an end, a parent and the id of the
//! request it belongs to. Spans recorded on another thread than their
//! request's root (the server side of an HTTP round trip) are attached to
//! that root afterwards by [`attach_to_roots`]. Nothing is written until
//! the run ends ([`write_jsonl`]).

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval, in nanoseconds since the tracers' shared origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span times, e.g. `core.probe`.
    pub name: &'static str,
    /// The request the work belongs to; spans of one request share it.
    pub request: u64,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing against `origin` (share it across threads).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns its index.
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes the span `id` now.
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, request, parent);
        let out = f();
        self.end(id);
        out
    }

    /// The spans recorded from index `from` on.
    pub fn spans_since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    /// Takes in spans another thread recorded against the same origin,
    /// making each of their roots a child of `parent`.
    pub fn adopt(&mut self, spans: Vec<Span>, parent: usize) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    /// Takes the recorded spans out of the tracer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing each list's parent
/// indices onto the merged list.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Gives every parentless span not named `root` the span named `root` of
/// the same request as its parent — how server-thread spans join the
/// client-thread request span they served.
pub fn attach_to_roots(spans: &mut [Span], root: &str) {
    let mut roots = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == root {
            roots.insert(s.request, i);
        }
    }
    for s in spans.iter_mut() {
        if s.parent.is_none() && s.name != root {
            s.parent = roots.get(&s.request).copied();
        }
    }
}

/// Nanoseconds of `parent`'s interval covered by the union of
/// `children`, each clipped to the parent. Overlapping children (work
/// running in parallel) count once.
pub fn covered_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<&Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s, kids))
        .collect()
}

/// Checks that `spans` nest: every child lies inside its parent's
/// interval and belongs to the same request. With nesting, a span's self
/// time plus the time its children cover is exactly its duration, so the
/// per-layer split adds back up to the request it came from. Returns the
/// first violation.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = s.parent else { continue };
        let ps = &spans[p];
        if s.request != ps.request {
            return Err(format!("span {i} ({}) crosses requests", s.name));
        }
        if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
            return Err(format!(
                "span {i} ({}) of request {} lies outside its parent {p} ({})",
                s.name, s.request, ps.name
            ));
        }
    }
    Ok(())
}

/// Writes the spans as JSON lines.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.name, s.request, s.start_ns, s.end_ns, parent
        )?;
    }
    out.flush()
}
