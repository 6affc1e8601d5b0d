//! Per-request tracing: a span recorder threaded from the wire down
//! through the estimation pipeline and back out.
//!
//! A [`Trace`] is a plain struct — no globals, no thread-locals, no
//! channels — carried by the request that owns it. Spans are recorded in
//! microseconds; counters are plain `u64` values. Both carry `&'static
//! str` names so recording never formats or allocates strings.
//!
//! **Nothing when not asked for.** The pipeline takes an
//! `Option<&mut Trace>`: every plain `ESTIMATE` passes `None`, which
//! costs one branch per instrumentation point and no allocation. Only
//! `EXPLAIN_ESTIMATE` constructs a trace.
//!
//! ```
//! use ceg_core::trace::Trace;
//!
//! let mut t = Trace::default();
//! t.record_span_micros("catalog_fill", 17);
//! t.counter("kernel_candidates", 40);
//! t.counter("kernel_candidates", 2);
//! assert_eq!(t.spans(), &[("catalog_fill", 17)]);
//! assert_eq!(t.counters(), &[("kernel_candidates", 42)]);
//! ```

/// A per-request span/counter recorder. See the module docs.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<(&'static str, u64)>,
    counters: Vec<(&'static str, u64)>,
}

impl Trace {
    /// Record a span of `micros` microseconds under `name`.
    #[inline]
    pub fn record_span_micros(&mut self, name: &'static str, micros: u64) {
        self.spans.push((name, micros));
    }

    /// Add `value` to the counter `name` (created at 0 on first use).
    #[inline]
    pub fn counter(&mut self, name: &'static str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((name, value)),
        }
    }

    /// Recorded spans as `(name, micros)`, in recording order.
    pub fn spans(&self) -> &[(&'static str, u64)] {
        &self.spans
    }

    /// Recorded counters as `(name, value)`, in first-use order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_trace_records_spans_and_counters() {
        let mut t = Trace::default();
        t.record_span_micros("phase_a", 3);
        t.record_span_micros("phase_b", 17);
        t.counter("widgets", 2);
        t.counter("widgets", 3);
        t.counter("gadgets", 1);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1], ("phase_b", 17));
        assert_eq!(t.counters(), &[("widgets", 5), ("gadgets", 1)]);
    }
}
