//! In-memory span recorder for the traced run.
//!
//! The benchmark opens one span around each call it makes into a layer. A
//! span records its name, start, end, parent and rep. Per-name totals
//! (count, total and self time) cover every span; the raw spans written to
//! the JSON file are capped at [`MAX_RAW_SPANS`], because a kernel soak
//! makes millions of calls and the file must stay small. When tracing is
//! off, `open` and `close` only test a flag, so untraced runs pay nothing
//! measurable.

use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the JSON file; later spans only update the totals.
pub const MAX_RAW_SPANS: usize = 100_000;

/// One finished span. Times are ns since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based span id.
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Rep the span belongs to.
    pub rep: u32,
    /// Layer call the span covers, e.g. `kernel::run_until`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans, ns.
    pub self_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// Handle for an open span; pass it back to [`Tracer::close`].
#[must_use = "a span must be closed"]
pub struct SpanGuard(u64);

/// The recorder. Spans must close in reverse order of opening.
pub struct Tracer {
    on: bool,
    origin: Instant,
    rep: u32,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    /// Per-name totals in first-closed order. A handful of names, so a
    /// scan (pointer comparison first) beats hashing on the hot path.
    totals: Vec<(&'static str, NameTotals)>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            rep: 0,
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            totals: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanGuard {
        if !self.on {
            return SpanGuard(0);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
        });
        SpanGuard(id)
    }

    /// Closes the innermost span and returns its duration in ns (0 when
    /// tracing is off).
    ///
    /// # Panics
    ///
    /// Panics if `guard` is not the innermost open span.
    pub fn close(&mut self, guard: SpanGuard) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("close without a matching open");
        assert_eq!(open.id, guard.0, "spans must close innermost first");
        let dur = end_ns - open.start_ns;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let slot = match self
            .totals
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, open.name) || *n == open.name)
        {
            Some(i) => i,
            None => {
                self.totals.push((open.name, NameTotals::default()));
                self.totals.len() - 1
            }
        };
        let t = &mut self.totals[slot].1;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if self.spans.len() < MAX_RAW_SPANS {
            self.spans.push(Span {
                id: open.id,
                parent,
                rep: self.rep,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    /// Totals for one span name (zero if it never closed).
    pub fn totals(&self, name: &str) -> NameTotals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, t)| t)
            .unwrap_or_default()
    }

    /// Totals for every span name, in name order.
    pub fn all_totals(&self) -> Vec<(&'static str, NameTotals)> {
        let mut all = self.totals.clone();
        all.sort_by_key(|&(n, _)| n);
        all
    }

    /// Spans closed so far, kept or not.
    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// The trace as JSON: the kept spans plus per-name totals.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(128 + self.spans.len() * 96);
        let _ = write!(
            s,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"clock\": \"ns since tracer start\", \
             \"spans_kept\": {}, \"spans_dropped\": {}, \"spans\": [",
            self.spans.len(),
            self.dropped
        );
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n  {{\"id\": {}, \"parent\": {}, \"rep\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                sp.id,
                sp.parent,
                sp.rep,
                sp.name,
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("\n], \"self_time\": [");
        for (i, (name, t)) in self.all_totals().iter().enumerate() {
            let _ = write!(
                s,
                "{}\n  {{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                t.count,
                t.total_ns,
                t.self_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_split_self_time() {
        let mut tr = Tracer::new(true);
        tr.set_rep(3);
        let outer = tr.open("rep");
        let inner = tr.open("kernel::run_until");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = tr.close(inner);
        let outer_ns = tr.close(outer);
        assert!(inner_ns >= 2_000_000 && outer_ns >= inner_ns);
        let spans = &tr.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "kernel::run_until");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
        assert!(spans.iter().all(|s| s.rep == 3));
        let rep = tr.totals("rep");
        assert_eq!(rep.self_ns, outer_ns - inner_ns);
        assert_eq!(tr.totals("kernel::run_until").self_ns, inner_ns);
        let json = tr.to_json("kernel-tenants", 1);
        assert!(json.contains("\"id\": 2, \"parent\": 1"));
        assert!(json.contains("\"name\": \"rep\", \"count\": 1"));
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let g = tr.open("rep");
        assert_eq!(tr.close(g), 0);
        assert_eq!(tr.span_count(), 0);
        assert_eq!(tr.totals("rep"), NameTotals::default());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_is_a_bug() {
        let mut tr = Tracer::new(true);
        let a = tr.open("a");
        let _b = tr.open("b");
        tr.close(a);
    }
}
