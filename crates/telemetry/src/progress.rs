//! Process-wide switch for live progress reporting.
//!
//! Long Monte Carlo campaigns report runs-done/ETA/utilization to stderr
//! while running (see `oxterm_mc::progress`). That reporting is off by
//! default — batch jobs and tests must stay byte-identical on stdout and
//! quiet on stderr — and the `--progress` CLI flag (via
//! `oxterm_bench::telemetry_cli`) switches it on.
//!
//! This module only owns the switch; it lives here so every crate that
//! already depends on the telemetry substrate can read it without new
//! dependency edges.

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns live progress reporting on or off for this process.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether live progress reporting is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_round_trips() {
        // The switch is process-global; exercise both directions and leave
        // it off so other tests stay quiet.
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
