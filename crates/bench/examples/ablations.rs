//! Ablation study over the design choices called out in DESIGN.md:
//!
//! 1. **Simple-only TurboMap-frt** (`weight_horizon = 0`) — what the
//!    paper's non-simple solutions buy.
//! 2. **Weight horizon of the general TurboMap baseline** — how the
//!    per-LUT register-crossing window changes Φ, area and ⋆ rate.
//!
//! Run with: `cargo run --release -p bench --example ablations`

use turbomap::{turbomap_frt, turbomap_general, Options};

fn main() {
    let names = ["dk16", "ex1", "kirkman", "sand", "keyb", "scf"];
    println!("== ablation 1: TurboMap-frt horizon (0 = simple solutions only) ==");
    println!(
        "{:<10} {:>10} {:>10} {:>14}",
        "circuit", "Φ full", "Φ simple", "LUT full/simple"
    );
    for name in names {
        let p = workloads::presets()
            .into_iter()
            .find(|p| p.name == name)
            .expect("preset");
        let c = workloads::build_preset(&p);
        let full = turbomap_frt(&c, Options::with_k(5)).expect("maps");
        let simple = turbomap_frt(
            &c,
            Options {
                weight_horizon: 0,
                ..Options::with_k(5)
            },
        )
        .expect("maps");
        println!(
            "{:<10} {:>10} {:>10} {:>7}/{:<7}",
            name, full.period, simple.period, full.luts, simple.luts
        );
        assert!(full.period <= simple.period);
    }

    println!();
    println!("== ablation 2: TurboMap general horizon ==");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "circuit", "h=1 Φ(⋆)", "h=2 Φ(⋆)", "h=4 Φ(⋆)"
    );
    for name in names {
        let p = workloads::presets()
            .into_iter()
            .find(|p| p.name == name)
            .expect("preset");
        let c = workloads::build_preset(&p);
        let mut cells = Vec::new();
        for h in [1u64, 2, 4] {
            let r = turbomap_general(
                &c,
                Options {
                    general_horizon: h,
                    ..Options::with_k(5)
                },
            )
            .expect("maps");
            cells.push(format!("{}{}", r.period, if r.star() { "*" } else { " " }));
        }
        println!(
            "{:<10} {:>12} {:>12} {:>12}",
            name, cells[0], cells[1], cells[2]
        );
    }
    println!();
    println!("(larger horizons explore deeper cross-register LUTs: Φ can only");
    println!(" drop, while initial-state failures (*) become more likely —");
    println!(" the paper's central trade-off.)");
}
