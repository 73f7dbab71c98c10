//! Experiment harness: regenerates every table and figure of the paper.
//!
//! Each `src/bin/` target reproduces one artifact and prints the paper's
//! reported values next to the measured ones:
//!
//! | target | artifact |
//! |---|---|
//! | `fig01_iv` | Fig 1c — 1T-1R butterfly I–V (log scale) |
//! | `table01_bias` | Table 1 — operating voltages + stack verification |
//! | `fig03_distributions` | Fig 3 — 500-cycle HRS/LRS cumulative distributions |
//! | `fig05_iv_variability` | Fig 5 — stochastic I–V envelopes (SET/RST/FMG) |
//! | `fig08_r_vs_iref` | Fig 8a/b — HRS resistance vs RESET compliance current |
//! | `table02_allocation` | Table 2 — the 16-level ISO-ΔI allocation |
//! | `fig09_read_refs` | Fig 9 — read reference-current placement |
//! | `fig10_transient` | Fig 10 — terminated vs standard RESET transient |
//! | `fig11_mc_boxplots` | Fig 11 — 500-run MC box plots of the 16 levels |
//! | `fig12_sigma_margin` | Fig 12 — σ and margin vs compliance current |
//! | `table03_projections` | Table 3 — 5 and 6 bits/cell projections |
//! | `fig13_energy_latency` | Fig 13 — energy and latency box plots |
//! | `table04_soa` | Table 4 — state-of-the-art comparison |
//! | `ablation_allocation` | ISO-ΔI vs ISO-ΔR placement |
//! | `ablation_termination` | behavioral vs transistor-level termination |
//! | `ablation_verify` | write termination vs program-and-verify |
//! | `ablation_parasitics` | bit-line parasitic sweep |
//! | `ablation_retention` | 10-year bakes of the 16 programmed levels |
//! | `ablation_corners` | comparator trip point across process corners |
//! | `ablation_model` | calibrated vs threshold-switching compact model |
//! | `area_overhead` | device counts behind the "dozens of transistors per bit line" claim |
//! | `motivation_crossbar` | §1 sneak-path limit of selector-less crossbars |
//! | `word_programming` | §4.2 word write: shared SL, per-BL termination |
//! | `extension_pcm` | the paper's future work: the scheme on PCM |
//! | `repro_all` | one-shot pass/fail checklist over every anchor |
//!
//! The library half hosts the shared Monte Carlo campaign
//! ([`campaigns`]), the drift gate over the committed baseline
//! ([`baseline`]) and terminal rendering helpers ([`chart`], [`table`]).

#![forbid(unsafe_code)]

pub mod baseline;
pub mod campaigns;
pub mod chart;
pub mod energy_report;
pub mod hotpath;
pub mod levels_report;
pub mod table;
pub mod telemetry_cli;
