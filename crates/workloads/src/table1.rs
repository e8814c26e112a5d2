//! The Table-1 benchmark suite: 18 seeded circuits calibrated to the
//! paper's `Original N/F` column.
//!
//! The 14 MCNC FSMs are random FSMs (one-hot registers = `F`) grown to
//! the paper's gate count `N` with a depth target derived from the
//! paper's FlowMap-frt clock periods (a K=5 LUT covers roughly two levels
//! of 2-input logic). The 4 ISCAS'89 circuits use the layered generator
//! with exact gate/register counts. Every preset also records the
//! paper's reported results so the harness can print paper-vs-measured
//! side by side.

use crate::fsm::{generate_fsm, Encoding, FsmSpec};
use crate::grow::grow;
use crate::layered::{generate_layered, LayeredSpec};
use netlist::Circuit;

/// One algorithm's row fragment in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperResult {
    /// Clock period Φ.
    pub phi: u64,
    /// LUT count.
    pub luts: u64,
    /// FF count.
    pub ffs: u64,
    /// CPU seconds on the paper's Sun Ultra2 (`None` = "> 7200").
    pub cpu: Option<f64>,
}

/// The paper's reported numbers for one benchmark circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// `Original N` (gates).
    pub n: usize,
    /// `Original F` (registers).
    pub f: usize,
    /// FlowMap-frt columns.
    pub flowmap_frt: PaperResult,
    /// TurboMap columns.
    pub turbomap: PaperResult,
    /// `⋆`: SIS failed to compute initial states for the TurboMap
    /// solution.
    pub turbomap_star: bool,
    /// `Best` valid Φ among the two baselines.
    pub best_valid_phi: u64,
    /// TurboMap-frt columns.
    pub turbomap_frt: PaperResult,
}

/// One benchmark preset.
#[derive(Debug, Clone)]
pub struct Preset {
    /// Circuit name (matching the paper's).
    pub name: &'static str,
    /// True for the four ISCAS'89-style circuits.
    pub iscas: bool,
    /// STG state count for the FSM generator (ignored for ISCAS rows).
    pub states: usize,
    /// Register encoding for the FSM generator (chosen so the register
    /// count equals the paper's `F`).
    pub encoding: Encoding,
    /// The paper's reported numbers.
    pub paper: PaperRow,
}

const fn pr(phi: u64, luts: u64, ffs: u64, cpu: f64) -> PaperResult {
    PaperResult {
        phi,
        luts,
        ffs,
        cpu: Some(cpu),
    }
}

const fn pr_timeout(phi: u64, luts: u64, ffs: u64) -> PaperResult {
    PaperResult {
        phi,
        luts,
        ffs,
        cpu: None,
    }
}

#[rustfmt::skip]
const fn row(n: usize, f: usize, fm: PaperResult, tm: PaperResult, star: bool,
             best: u64, tf: PaperResult) -> PaperRow {
    PaperRow {
        n, f,
        flowmap_frt: fm,
        turbomap: tm,
        turbomap_star: star,
        best_valid_phi: best,
        turbomap_frt: tf,
    }
}

/// All 18 presets, in the paper's row order (Table 1).
#[rustfmt::skip]
pub fn presets() -> Vec<Preset> {
    vec![
        Preset { name: "bbara",    iscas: false, states: 10, encoding: Encoding::OneHot, paper: row(  28,   10, pr( 4,   13,   10,   0.2), pr( 3,   12,    7,    0.4), false,  3, pr( 3,   12,   12,    0.2)) },
        Preset { name: "bbtas",    iscas: false, states: 5, encoding: Encoding::OneHot, paper: row(  15,    5, pr( 2,    7,    5,   0.1), pr( 1,    6,    4,    0.2), false,  1, pr( 1,    6,    4,    0.1)) },
        Preset { name: "dk16",     iscas: false, states: 5, encoding: Encoding::OneHot, paper: row( 162,    5, pr(14,  101,    5,   0.9), pr(14,  103,   14,    3.8), false, 14, pr(14,  103,    9,    1.7)) },
        Preset { name: "dk17",     iscas: false, states: 5, encoding: Encoding::OneHot, paper: row(  42,    5, pr( 2,   10,    5,   0.2), pr( 1,    6,    3,    0.4), false,  1, pr( 1,    6,    3,    0.2)) },
        Preset { name: "ex1",      iscas: false, states: 17, encoding: Encoding::Binary, paper: row( 140,    5, pr( 8,   83,    5,   0.7), pr( 8,   92,   21,    1.9), false,  8, pr( 8,   92,   20,    1.3)) },
        Preset { name: "ex2",      iscas: false, states: 7, encoding: Encoding::OneHot, paper: row(  16,    7, pr( 2,    9,    7,   0.2), pr( 1,    4,    3,    0.2), true,   2, pr( 1,    4,    3,    0.1)) },
        Preset { name: "keyb",     iscas: false, states: 17, encoding: Encoding::Binary, paper: row( 134,    5, pr(10,   75,    5,   0.6), pr(10,   79,    5,    1.6), false, 10, pr(10,   81,    5,    1.0)) },
        Preset { name: "kirkman",  iscas: false, states: 5, encoding: Encoding::OneHot, paper: row( 106,    5, pr( 6,   48,    5,   0.7), pr( 5,   57,   24,    1.2), true,   6, pr( 5,   57,   14,    0.8)) },
        Preset { name: "planet1",  iscas: false, states: 6, encoding: Encoding::OneHot, paper: row( 348,    6, pr(19,  213,    6,   2.0), pr(19,  201,   18,   12.5), true,  19, pr(19,  199,   37,    5.0)) },
        Preset { name: "s1",       iscas: false, states: 5, encoding: Encoding::OneHot, paper: row( 107,    5, pr( 7,   58,    5,   0.5), pr( 7,   63,   11,    1.2), false,  7, pr( 7,   56,    6,    0.7)) },
        Preset { name: "sand",     iscas: false, states: 17, encoding: Encoding::OneHot, paper: row( 327,   17, pr(16,  176,   17,   1.8), pr(15,  178,   30,   10.6), true,  16, pr(15,  176,   12,    4.3)) },
        Preset { name: "scf",      iscas: false, states: 7, encoding: Encoding::OneHot, paper: row( 516,    7, pr(14,  325,    7,   2.8), pr(13,  304,   20,   19.8), true,  14, pr(13,  301,   27,    8.8)) },
        Preset { name: "sse",      iscas: false, states: 9, encoding: Encoding::Binary, paper: row(  74,    4, pr( 7,   42,    4,   0.4), pr( 6,   45,   10,    0.9), false,  6, pr( 6,   44,    8,    0.5)) },
        Preset { name: "styr",     iscas: false, states: 5, encoding: Encoding::OneHot, paper: row( 281,    5, pr(17,  163,    5,   1.6), pr(16,  168,    8,    5.2), true,  17, pr(17,  168,   12,    3.2)) },
        Preset { name: "s5378",    iscas: true, states: 0, encoding: Encoding::OneHot, paper: row(1503,  164, pr( 4,  421,  204,   7.9), pr( 4,  444,  301,   51.5), true,   4, pr( 4,  427,  261,   40.3)) },
        Preset { name: "s9234.1",  iscas: true, states: 0, encoding: Encoding::OneHot, paper: row(1299,  135, pr( 6,  462,  161,   8.5), pr_timeout( 4,  498,  217), true,   6, pr( 5,  441,  203,   58.8)) },
        Preset { name: "s15850.1", iscas: true, states: 0, encoding: Encoding::OneHot, paper: row(3801,  515, pr(10, 1240,  504,  30.3), pr_timeout( 8, 1161,  732), true,  10, pr(10, 1166,  621,  205.6)) },
        Preset { name: "s38417",   iscas: true, states: 0, encoding: Encoding::OneHot, paper: row(9817, 1464, pr( 8, 3526, 1464, 561.5), pr( 6, 3420, 2264, 1201.8), true,   8, pr( 6, 3301, 2573, 1210.6)) },
    ]
}

/// Builds the circuit for one preset (deterministic).
pub fn build_preset(p: &Preset) -> Circuit {
    let seed = seed_of(p.name);
    // Depth target: the paper's FlowMap-frt Φ is the per-block 5-LUT
    // depth; a 5-LUT absorbs ~2 levels of 2-input logic.
    let depth = (p.paper.flowmap_frt.phi * 5 / 2).max(2);
    if p.iscas {
        let inputs = (p.paper.n / 40).clamp(8, 64);
        generate_layered(&LayeredSpec {
            name: p.name.to_string(),
            // Register-file and input buffers count as gates; input
            // registers count toward `F`.
            gates: p.paper.n.saturating_sub(p.paper.f).max(1),
            ffs: p.paper.f.saturating_sub(inputs).max(1),
            inputs,
            outputs: (p.paper.n / 60).clamp(6, 48),
            depth: depth as usize,
            registered_inputs: true,
            seed,
        })
    } else {
        // Tiny targets need the narrowest decoder (1 decoded input) or
        // the base FSM alone overshoots the paper's N. Inputs are
        // registered (scan-style), so PIs count toward `F` and the state
        // count shrinks accordingly.
        let inputs = if p.paper.n < 60 {
            1
        } else {
            (p.paper.n / 60).clamp(1, 6)
        }
        .min(p.paper.f.saturating_sub(2).max(1));
        let states = match p.encoding {
            Encoding::OneHot => p.states.min(p.paper.f - inputs).max(1),
            Encoding::Binary => {
                // Keep bits_for(states) = F - inputs.
                let bits = (p.paper.f - inputs).max(1);
                ((3usize << bits) / 4)
                    .max((1 << (bits - 1)) + 1)
                    .min(1 << bits)
            }
        };
        let base = generate_fsm(&FsmSpec {
            name: p.name.to_string(),
            states,
            inputs,
            decoded: 1,
            outputs: (p.paper.n / 50).clamp(1, 6),
            encoding: p.encoding,
            registered_inputs: true,
            seed,
        });
        grow(&base, p.paper.n, depth, seed).expect("table1 FSM bases are valid grow inputs")
    }
}

fn seed_of(name: &str) -> u64 {
    // FNV-1a for stable per-name seeds.
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Builds the full 18-circuit suite.
pub fn table1_suite() -> Vec<(Preset, Circuit)> {
    presets()
        .into_iter()
        .map(|p| {
            let c = build_preset(&p);
            (p, c)
        })
        .collect()
}

/// Builds only the circuits below a gate-count bound (for quick runs).
pub fn table1_suite_small(max_gates: usize) -> Vec<(Preset, Circuit)> {
    table1_suite()
        .into_iter()
        .filter(|(_, c)| c.num_gates() <= max_gates)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_paper_rows() {
        let p = presets();
        assert_eq!(p.len(), 18);
        assert_eq!(p.iter().filter(|x| x.iscas).count(), 4);
        assert_eq!(p.iter().filter(|x| x.paper.turbomap_star).count(), 10);
    }

    #[test]
    fn small_presets_match_f_exactly() {
        for p in presets().into_iter().take(6) {
            let c = build_preset(&p);
            netlist::validate(&c).unwrap();
            assert_eq!(c.ff_count_shared(), p.paper.f, "{}", p.name);
        }
    }

    #[test]
    fn gate_counts_close_to_paper() {
        for p in presets() {
            if p.paper.n > 600 {
                continue; // large ones covered by the harness itself
            }
            let c = build_preset(&p);
            let n = c.num_gates();
            // FSM bases can overshoot tiny targets; ±60% tolerated there,
            // grown/layered circuits are near-exact.
            assert!(
                n >= p.paper.n && n <= p.paper.n * 8 / 5 + 30,
                "{}: N={} target={}",
                p.name,
                n,
                p.paper.n
            );
        }
    }

    #[test]
    fn iscas_counts_exact() {
        let p = presets();
        let s5378 = p.iter().find(|x| x.name == "s5378").unwrap();
        let c = build_preset(s5378);
        assert_eq!(c.num_gates(), s5378.paper.n);
        assert_eq!(c.ff_count_shared(), s5378.paper.f);
        netlist::validate(&c).unwrap();
    }

    #[test]
    fn suite_is_deterministic() {
        let a = build_preset(&presets()[1]);
        let b = build_preset(&presets()[1]);
        assert_eq!(a, b);
    }

    #[test]
    fn geomean_reference_values() {
        // The paper's geometric means for the Φ columns: 7.0 / 5.6 / 5.8.
        let p = presets();
        let geo = |f: &dyn Fn(&Preset) -> f64| -> f64 {
            let s: f64 = p.iter().map(|x| f(x).ln()).sum();
            (s / p.len() as f64).exp()
        };
        let fm = geo(&|x: &Preset| x.paper.flowmap_frt.phi as f64);
        let tm = geo(&|x: &Preset| x.paper.turbomap.phi as f64);
        let tf = geo(&|x: &Preset| x.paper.turbomap_frt.phi as f64);
        assert!((fm - 7.0).abs() < 0.1, "fm geomean {fm}");
        assert!((tm - 5.6).abs() < 0.1, "tm geomean {tm}");
        assert!((tf - 5.8).abs() < 0.1, "tf geomean {tf}");
    }
}
