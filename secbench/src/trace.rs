//! In-memory spans with allocation counts, self times, and a CSV dump.
//!
//! A span brackets one call the benchmark makes into a layer's public
//! function. Spans nest: a span's *self* time (and self allocation count)
//! is its own interval minus the intervals of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use crate::alloc::{thread_allocs, AllocCount};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.get`.
    pub name: &'static str,
    /// Sequence number of the request the span serves.
    pub request: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Allocations inside the interval, children included.
    pub allocs: AllocCount,
    /// Units of work the span processed: bytes for kernel spans, requests
    /// for batch spans.
    pub work: u64,
}

/// Records spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Allocations the tracer itself made, excluded from every count.
    own: AllocCount,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(64),
            own: AllocCount::default(),
        }
    }

    fn net_allocs(&self) -> AllocCount {
        thread_allocs().since(self.own)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let before = thread_allocs();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: AllocCount::default(),
            work: 0,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        let grown = thread_allocs().since(before);
        self.own.allocs += grown.allocs;
        self.own.bytes += grown.bytes;
        self.spans[idx].allocs = self.net_allocs();
        self.spans[idx].start_ns = self.now_ns();
        idx
    }

    /// Closes span `idx`, which must be the innermost open one.
    pub fn exit(&mut self, idx: usize) {
        let end_ns = self.now_ns();
        let allocs = self.net_allocs();
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.allocs = allocs.since(span.allocs);
    }

    /// Records the work span `idx` processed.
    pub fn set_work(&mut self, idx: usize, work: u64) {
        self.spans[idx].work = work;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and counts summed per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let (child_ns, child_allocs) = self.child_sums();
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.self_ns += span.end_ns - span.start_ns - child_ns[i];
            t.self_allocs += span.allocs.allocs - child_allocs[i].allocs;
            t.self_alloc_bytes += span.allocs.bytes - child_allocs[i].bytes;
            t.work += span.work;
        }
        totals
    }

    fn child_sums(&self) -> (Vec<u64>, Vec<AllocCount>) {
        let mut ns = vec![0u64; self.spans.len()];
        let mut allocs = vec![AllocCount::default(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                ns[p] += span.end_ns - span.start_ns;
                allocs[p].allocs += span.allocs.allocs;
                allocs[p].bytes += span.allocs.bytes;
            }
        }
        (ns, allocs)
    }

    /// Writes every span as CSV: id, parent, request, name, start, end,
    /// self time (ns), allocations, self allocations, work.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let (child_ns, child_allocs) = self.child_sums();
        let mut out =
            String::from("id,parent,request,name,start_ns,end_ns,self_ns,allocs,self_allocs,work\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i},{parent},{},{},{},{},{},{},{},{}",
                s.request,
                s.name,
                s.start_ns,
                s.end_ns,
                s.end_ns - s.start_ns - child_ns[i],
                s.allocs.allocs,
                s.allocs.allocs - child_allocs[i].allocs,
                s.work
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Per-name sums over spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed self allocations.
    pub self_allocs: u64,
    /// Summed self allocated bytes.
    pub self_alloc_bytes: u64,
    /// Summed work.
    pub work: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_and_allocations_exclude_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 0);
        let kept = vec![1u8; 16];
        let inner = t.enter("inner", 0);
        let a = vec![0u8; 32];
        let b = vec![0u8; 64];
        t.exit(inner);
        t.exit(outer);
        drop((kept, a, b));
        let totals = t.totals();
        assert_eq!(totals["outer"].self_allocs, 1);
        assert_eq!(totals["outer"].self_alloc_bytes, 16);
        assert_eq!(totals["inner"].self_allocs, 2);
        assert_eq!(totals["inner"].self_alloc_bytes, 96);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns - spans[0].start_ns >= spans[1].end_ns - spans[1].start_ns);
    }
}
