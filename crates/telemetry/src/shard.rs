//! Per-thread shards: how the Monte Carlo per-program path records.
//!
//! The profiler, the joule ledger's role × phase × class matrix and the
//! catalogued telemetry metrics ([`crate::CounterId`],
//! [`crate::HistogramId`]) record into a plain tally owned by the recording
//! thread: no atomic, no lock and no name lookup per record. A tally
//! belongs to one sink (the shared state of one armed handle) and merges
//! into it, under the sink's lock, when
//!
//! - the thread calls [`crate::flush_thread`], as every Monte Carlo worker
//!   does when it exits;
//! - the thread takes a snapshot or report of that kind of sink;
//! - the thread exits.
//!
//! A snapshot therefore sees every thread that has flushed or exited, plus
//! the calling thread. The tallies are integers (call counts, nanoseconds,
//! joule quanta, bin counts), so the merge order cannot change a total;
//! only a histogram's floating-point sum depends on it.

use std::sync::Arc;

/// The shared side of a shard: what a thread's tally merges into.
pub(crate) trait Sink {
    /// One thread's plain accumulator for this sink.
    type Tally: Default;

    /// Adds `tally` to the shared totals.
    fn merge(&self, tally: &Self::Tally);
}

/// One thread's tallies, one per sink the thread has recorded into.
///
/// A bound sink stays bound (its `Arc` held) until the thread exits, so
/// its address identifies it for as long as any scope on the thread can
/// name it.
pub(crate) struct Shard<S: Sink> {
    bound: Vec<(Arc<S>, S::Tally)>,
}

impl<S: Sink> Shard<S> {
    /// A shard bound to no sink.
    pub(crate) const fn new() -> Self {
        Shard { bound: Vec::new() }
    }

    /// This thread's tally for `sink`, bound on first use.
    pub(crate) fn tally(&mut self, sink: &Arc<S>) -> &mut S::Tally {
        let k = match self.bound.iter().position(|(s, _)| Arc::ptr_eq(s, sink)) {
            Some(k) => k,
            None => {
                self.bound.push((Arc::clone(sink), S::Tally::default()));
                self.bound.len() - 1
            }
        };
        &mut self.bound[k].1
    }

    /// The tally of the sink whose [`key`] is `key`, if this thread has
    /// bound it.
    pub(crate) fn tally_at(&mut self, key: usize) -> Option<&mut S::Tally> {
        self.bound
            .iter_mut()
            .find(|(s, _)| Arc::as_ptr(s) as usize == key)
            .map(|(_, t)| t)
    }

    /// Merges every tally into its sink and starts them over.
    pub(crate) fn flush(&mut self) {
        for (sink, tally) in &mut self.bound {
            sink.merge(tally);
            *tally = S::Tally::default();
        }
    }
}

impl<S: Sink> Drop for Shard<S> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A sink's identity on a thread that has bound it (see [`Shard`]).
pub(crate) fn key<S>(sink: &Arc<S>) -> usize {
    Arc::as_ptr(sink) as usize
}
