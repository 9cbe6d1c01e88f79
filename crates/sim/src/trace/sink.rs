//! Streaming trace consumers: the null and collecting sinks.

use crate::trace::TraceEvent;

/// A streaming consumer of [`TraceEvent`]s.
///
/// The engine calls [`emit`](TraceSink::emit) once per event, in execution
/// order, from a single thread. Sinks own their memory policy: a collecting
/// sink grows, a writer streams to I/O.
///
/// # Contract
///
/// * [`enabled`](TraceSink::enabled) is sampled **once per run**; a sink
///   returning `false` (only [`NullSink`] in this crate) receives no
///   events and the engine skips all event construction.
/// * Sinks must be deterministic functions of the event stream if the
///   surrounding experiment relies on byte-identical traces (the JSONL
///   writer in `oraclesize_runtime` does).
pub trait TraceSink {
    /// Whether this sink wants events at all. Defaults to `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn emit(&mut self, event: TraceEvent);
}

/// The no-op sink driven when tracing is off: reports `enabled() == false`
/// so the engine never constructs an event, and drops anything emitted
/// anyway. Carries no state and never allocates.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: TraceEvent) {}
}

/// Collects every event into a vector — the handiest sink for tests.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty sink. Does not allocate until the first event.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// The events collected so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the collected events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for VecSink {
    fn emit(&mut self, event: TraceEvent) {
        // lint:allow(A001): sinks only run when tracing is on — the recorder's
        // cached flag keeps untraced delivery off this path entirely
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent::Enqueue {
            msg: i,
            from: 0,
            to: 1,
            bits: i,
            carries_source: false,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(ev(0)); // harmless
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut s = VecSink::new();
        for i in 0..5 {
            s.emit(ev(i));
        }
        let events = s.into_events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[3], ev(3));
    }
}
