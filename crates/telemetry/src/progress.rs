//! Process-wide opt-in for live progress reporting.
//!
//! Long Monte Carlo campaigns report runs-done/ETA/utilization to stderr
//! while running (see `oxterm_mc::progress`). That reporting is off by
//! default — batch jobs and tests must stay byte-identical on stdout and
//! quiet on stderr — and is switched on either by the `--progress` CLI
//! flag (via `oxterm_bench::telemetry_cli`) or the `OXTERM_PROGRESS=1`
//! environment variable.
//!
//! This module only owns the switch; it lives here so every crate that
//! already depends on the telemetry substrate can read it without new
//! dependency edges.

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state: 0 = unresolved (consult the environment), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Turns live progress reporting on or off for this process.
pub fn set_enabled(enabled: bool) {
    STATE.store(if enabled { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether live progress reporting is on. Unless [`set_enabled`] was
/// called, this resolves `OXTERM_PROGRESS` (truthy: `1`, `true`, `yes`)
/// once and caches the answer.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = std::env::var("OXTERM_PROGRESS")
                .map(|v| matches!(v.as_str(), "1" | "true" | "yes"))
                .unwrap_or(false);
            STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
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
