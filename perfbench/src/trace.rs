//! In-memory span recording for the traced run. Each thread owns a
//! [`Tracer`]; spans are plain records (name, id, parent, request id, start,
//! end) pushed into a pre-sized vector and written out only when the run
//! ends, so recording never does I/O. A disabled tracer records nothing and
//! never reads the clock.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the run's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `lockfree_ds.insert`.
    pub name: &'static str,
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Session ticket, or op index for sampled closed-loop ops.
    pub req: u64,
    /// Start, in ns since the origin.
    pub start: u64,
    /// End, in ns since the origin.
    pub end: u64,
}

/// A per-thread span buffer.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose ids start at `thread_tag << 40` (unique per thread).
    pub fn new(origin: Instant, thread_tag: u64, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            next_id: (thread_tag << 40) + 1,
            spans: Vec::with_capacity(if enabled { 1 << 14 } else { 0 }),
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the origin to `at`.
    #[inline]
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves an id for a span whose children are recorded before it ends.
    #[inline]
    pub fn open(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span under a reserved `id`.
    #[inline]
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let (start, end) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                id,
                parent,
                req,
                start,
                end,
            });
        }
    }

    /// Records a leaf span.
    #[inline]
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.open();
            self.close(id, name, parent, req, start, end);
        }
    }

    /// Takes the recorded spans.
    pub fn take(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes spans as tab-separated `S` lines tagged with their `cell`.
pub fn write_spans(out: &mut impl Write, cell: &str, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "S\t{cell}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.req, s.start, s.end
        )?;
    }
    Ok(())
}

/// Writes one `C` (counter) line.
pub fn write_counter(out: &mut impl Write, cell: &str, name: &str, value: f64) -> io::Result<()> {
    writeln!(out, "C\t{cell}\t{name}\t{value}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin, 1, false);
        tracer.leaf("x", 0, 0, origin, Instant::now());
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn children_point_at_their_parent() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin, 3, true);
        let parent = tracer.open();
        tracer.leaf("child", parent, 9, origin, Instant::now());
        tracer.close(parent, "parent", 0, 9, origin, Instant::now());
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans[0].id >> 40 == 3 && spans[1].id >> 40 == 3);
        assert!(spans.iter().all(|s| s.req == 9 && s.start <= s.end));
    }
}
