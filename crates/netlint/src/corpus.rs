//! The lint corpus: the netlists the shipped experiments actually simulate,
//! rebuilt through the same `oxterm-mlc` constructors the experiment
//! binaries call — plus seeded-defect variants exercising each rule family.
//!
//! Keeping the corpus behind the library builders (rather than duplicating
//! netlist literals here) means a topology change in `program` or
//! `termination` is linted in the exact form it will be simulated.

use oxterm_devices::passive::Capacitor;
use oxterm_devices::sources::{SourceWave, VoltageSource};
use oxterm_mlc::levels::LevelAllocation;
use oxterm_mlc::program::{build_program_circuit, program_tran_options, CircuitProgramOptions};
use oxterm_mlc::termination::{comparator_testbench, TerminationSizing};
use oxterm_spice::analysis::tran::TranOptions;
use oxterm_spice::circuit::Circuit;

/// One lintable netlist with the transient options it will run under
/// (`None` for DC-only testbenches).
#[derive(Debug)]
pub struct CorpusEntry {
    /// Corpus key, e.g. `fig10/terminated` or `ladder/level-07`.
    pub name: String,
    /// The built netlist.
    pub circuit: Circuit,
    /// Planned transient options, when the experiment runs a transient.
    pub tran: Option<TranOptions>,
}

fn program_entry(name: &str, opts: &CircuitProgramOptions) -> CorpusEntry {
    let (circuit, _) = build_program_circuit(opts)
        .unwrap_or_else(|e| panic!("corpus circuit `{name}` must build: {e}"));
    CorpusEntry {
        name: name.to_string(),
        circuit,
        tran: Some(program_tran_options(opts)),
    }
}

fn testbench_entry(name: &str, i_cell: f64, i_ref: f64) -> CorpusEntry {
    let (circuit, _) = comparator_testbench(i_cell, i_ref, &TerminationSizing::default());
    CorpusEntry {
        name: name.to_string(),
        circuit,
        tran: None,
    }
}

/// The Fig 10 circuit-level programming entries (terminated MLC pulse and
/// the worst-case standard pulse).
pub fn fig10_entries() -> Vec<CorpusEntry> {
    let opts = CircuitProgramOptions::paper_fig10();
    let std_opts = CircuitProgramOptions {
        v_sl: 3.0,
        v_wl: 3.3,
        pulse_width: 3.5e-6,
        ..opts
    };
    vec![
        program_entry("fig10/terminated", &opts),
        program_entry("fig10/standard", &std_opts),
    ]
}

/// One comparator testbench per ISO-ΔI ladder level (the netlists the
/// MC/ablation experiments retune through), driven at twice the reference.
pub fn ladder_entries() -> Vec<CorpusEntry> {
    LevelAllocation::paper_qlc()
        .levels()
        .iter()
        .map(|level| {
            testbench_entry(
                &format!("ladder/level-{:02}", level.code),
                2.0 * level.i_ref,
                level.i_ref,
            )
        })
        .collect()
}

/// The ablation-corner comparator testbench at the paper's mid-ladder
/// reference.
pub fn ablation_entries() -> Vec<CorpusEntry> {
    vec![testbench_entry("ablation/comparator", 15e-6, 10e-6)]
}

/// Every shipped netlist (the no-false-positive gate lints all of these).
pub fn shipped() -> Vec<CorpusEntry> {
    let mut all = fig10_entries();
    all.extend(ladder_entries());
    all.extend(ablation_entries());
    all
}

// --- Seeded defects -------------------------------------------------------
//
// Each builder plants exactly one defect class in an otherwise-shipped
// netlist; the defect tests assert the expected rule id fires.

/// A node reachable only through a capacitor: no DC path to ground.
pub fn defect_floating_node() -> CorpusEntry {
    let opts = CircuitProgramOptions::paper_fig10();
    let (mut circuit, _) = build_program_circuit(&opts)
        .unwrap_or_else(|e| panic!("defect base circuit must build: {e}"));
    let bl_cell = circuit.node("bl_cell");
    let probe = circuit.node("probe");
    circuit.add(Capacitor::new("c_probe", probe, bl_cell, 1e-15));
    CorpusEntry {
        name: "defect/floating-node".to_string(),
        circuit,
        tran: Some(program_tran_options(&opts)),
    }
}

/// A second supply source in parallel with the first: a voltage-source
/// loop (over-determined KVL).
pub fn defect_vsrc_loop() -> CorpusEntry {
    let (mut circuit, _) = comparator_testbench(15e-6, 10e-6, &TerminationSizing::default());
    let vdd = circuit.node("vdd");
    circuit.add(VoltageSource::new(
        "vdd_dup",
        vdd,
        Circuit::gnd(),
        SourceWave::dc(3.2),
    ));
    CorpusEntry {
        name: "defect/vsrc-loop".to_string(),
        circuit,
        tran: None,
    }
}

/// A termination reference programmed outside the 6–36 µA ladder window.
pub fn defect_iref_out_of_ladder() -> CorpusEntry {
    let (circuit, _) = comparator_testbench(60e-6, 50e-6, &TerminationSizing::default());
    CorpusEntry {
        name: "defect/iref-out-of-ladder".to_string(),
        circuit,
        tran: None,
    }
}

/// A transient step ceiling two orders coarser than the pulse edges.
pub fn defect_coarse_timestep() -> CorpusEntry {
    let opts = CircuitProgramOptions {
        dt_max: 1e-6,
        ..CircuitProgramOptions::paper_fig10()
    };
    program_entry("defect/coarse-timestep", &opts)
}
