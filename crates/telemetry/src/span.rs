//! Scoped wall-time spans.

use crate::registry::Registry;
use std::sync::Arc;
use std::time::Instant;

/// A scoped timer: records the elapsed wall time in seconds into its
/// histogram when dropped. Obtained from [`crate::Telemetry::span`]; a
/// no-op variant exists so disabled telemetry costs nothing but the guard.
#[derive(Debug)]
pub struct Span {
    inner: Option<(Arc<Registry>, &'static str, Instant)>,
}

impl Span {
    /// A span that started now and records into `reg`'s histogram `name`
    /// on drop.
    pub(crate) fn started(reg: Arc<Registry>, name: &'static str) -> Self {
        Span {
            inner: Some((reg, name, Instant::now())),
        }
    }

    /// A span that records nothing.
    pub const fn noop() -> Self {
        Span { inner: None }
    }

    /// Whether this span will record on drop.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Stops the span early, recording now instead of at scope end.
    pub fn finish(mut self) {
        self.record_now();
    }

    fn record_now(&mut self) {
        if let Some((reg, name, started)) = self.inner.take() {
            reg.record(name, started.elapsed().as_secs_f64());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_once_on_drop() {
        let reg = Arc::new(Registry::new());
        {
            let _s = Span::started(Arc::clone(&reg), "t");
        }
        assert_eq!(reg.report().histograms["t"].count, 1);
    }

    #[test]
    fn finish_records_and_consumes() {
        let reg = Arc::new(Registry::new());
        let s = Span::started(Arc::clone(&reg), "t");
        s.finish();
        assert_eq!(reg.report().histograms["t"].count, 1);
    }

    #[test]
    fn noop_span_records_nothing() {
        let s = Span::noop();
        assert!(!s.is_active());
        drop(s);
    }
}
