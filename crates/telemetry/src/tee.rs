//! A fan-out telemetry sink: forwards every event to two downstream
//! shared sinks.
//!
//! Used by the live observability plane (`oram-obsv`) to receive the
//! engine-side stream *alongside* the standard [`crate::TelemetryRecorder`]
//! without the engine knowing about either: the engine sees one
//! `SharedTelemetry` handle as before, and the tee forwards in a fixed
//! order (primary first, then secondary), so attaching the secondary
//! changes nothing about what the primary records.

use std::sync::{Arc, Mutex};

use oram_util::{AccessSpan, MetricId, SharedTelemetry, TelemetrySink, WindowSample};

/// A [`TelemetrySink`] that forwards each event to two shared sinks in
/// a fixed order. Forwarding takes each downstream lock per event; both
/// locks are uncontended in the one-shard attachment this is built for,
/// and the tee itself performs no allocation.
#[derive(Debug)]
pub struct TeeSink {
    primary: SharedTelemetry,
    secondary: SharedTelemetry,
}

impl TeeSink {
    /// A tee forwarding to `primary` then `secondary`.
    pub fn new(primary: SharedTelemetry, secondary: SharedTelemetry) -> Self {
        TeeSink { primary, secondary }
    }

    /// Wraps a fresh tee in the shared handle components attach to.
    pub fn shared(primary: SharedTelemetry, secondary: SharedTelemetry) -> SharedTelemetry {
        Arc::new(Mutex::new(TeeSink::new(primary, secondary)))
    }
}

impl TelemetrySink for TeeSink {
    #[inline]
    fn count(&mut self, id: MetricId, delta: u64) {
        self.primary.lock().unwrap().count(id, delta);
        self.secondary.lock().unwrap().count(id, delta);
    }

    #[inline]
    fn sample(&mut self, id: MetricId, value: u64) {
        self.primary.lock().unwrap().sample(id, value);
        self.secondary.lock().unwrap().sample(id, value);
    }

    #[inline]
    fn span(&mut self, span: &AccessSpan) {
        self.primary.lock().unwrap().span(span);
        self.secondary.lock().unwrap().span(span);
    }

    fn window(&mut self, w: &WindowSample) {
        self.primary.lock().unwrap().window(w);
        self.secondary.lock().unwrap().window(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TelemetryConfig, TelemetryRecorder};

    #[test]
    fn tee_forwards_to_both_sinks() {
        let a = TelemetryRecorder::shared(TelemetryConfig::default());
        let b = TelemetryRecorder::shared(TelemetryConfig::default());
        let tee = TeeSink::shared(TelemetryRecorder::as_sink(&a), TelemetryRecorder::as_sink(&b));
        {
            let mut t = tee.lock().unwrap();
            t.count(MetricId::TreetopServed, 2);
            t.sample(MetricId::StashOccupancy, 7);
            t.window(&WindowSample { index: 0, end_cycle: 10, ..Default::default() });
        }
        for r in [&a, &b] {
            let r = r.lock().unwrap();
            assert_eq!(r.metrics().counter(MetricId::TreetopServed), 2);
            assert_eq!(r.metrics().histogram(MetricId::StashOccupancy).count(), 1);
            assert_eq!(r.series().windows().len(), 1);
        }
    }
}
