//! Large hierarchical sequential designs (100k–1M gates) for the
//! ingestion suite.
//!
//! A design is a chain of `tiles` instances drawn from `kinds` distinct
//! tile models. Each tile is a `width`-bit bus transformer: random
//! 2-input logic over its bus inputs, a register per output bit, and a
//! buffered output stage. The top model wires the tiles in a chain and
//! finishes with yosys `.conn` aliases into the primary outputs, so one
//! design exercises `.subckt` hierarchy, latch arities/types, off-set
//! cubes, continuations, `.attr/.param/.cname`, `.blackbox`, and
//! `.conn` at industrial scale.
//!
//! Two independent consumers share one deterministic [`TilePlan`]:
//! [`write_hier`] streams the hierarchical BLIF text (never building
//! the flat design in memory — emitted text is O(tile) per model plus
//! O(width) per chain step), and [`build_flat`] constructs the
//! flattened circuit directly. `blifio::flatten(parse(write_hier(s)))`
//! must be structurally equal to `build_flat(s)` — that equivalence is
//! the front-end's large-scale acceptance test.

use engine::Rng64;
use netlist::{Bit, Circuit, NetlistError, NodeId, TruthTable};
use std::io::{self, Write};

/// Parameters of a generated hierarchical design.
#[derive(Debug, Clone)]
pub struct LargeSpec {
    /// Design (top model) name.
    pub name: String,
    /// Bus width: tile inputs/outputs and register count per tile.
    pub width: usize,
    /// Number of distinct tile models.
    pub kinds: usize,
    /// Chain length (tile instances).
    pub tiles: usize,
    /// Internal 2-input gates per tile.
    pub tile_gates: usize,
    /// RNG seed.
    pub seed: u64,
}

impl LargeSpec {
    /// Exact post-flatten gate count: tile gates + per-tile output
    /// buffers + final `.conn` buffers and PO buffers.
    pub fn flat_gates(&self) -> usize {
        self.tiles * (self.tile_gates + self.width) + 2 * self.width
    }

    /// Exact post-flatten FF count (one register per bus bit per tile).
    pub fn flat_ffs(&self) -> usize {
        self.tiles * self.width
    }
}

/// The four gate operators used inside tiles.
const OPS: usize = 4;

fn op_tt(op: u8) -> TruthTable {
    match op {
        0 => TruthTable::and(2),
        1 => TruthTable::or(2),
        2 => TruthTable::nand(2),
        _ => TruthTable::xor(2),
    }
}

/// One tile model's deterministic wiring plan.
///
/// Gate `i` reads signals `a`/`b` from the index space
/// `0..width` = bus inputs, `width + j` = gate `j` (j < i, keeping the
/// tile acyclic).
#[derive(Debug, Clone)]
pub struct TilePlan {
    /// Per gate: (operator, input a, input b).
    pub gates: Vec<(u8, u32, u32)>,
    /// Per output bit: index of the gate feeding its register.
    pub out_src: Vec<u32>,
    /// Per output bit: register initial value.
    pub out_init: Vec<Bit>,
}

/// Computes the plan for tile kind `kind` of `spec` (pure function of
/// the spec's seed).
pub fn tile_plan(spec: &LargeSpec, kind: usize) -> TilePlan {
    let mut rng = Rng64::new(spec.seed ^ (kind as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let w = spec.width;
    let mut gates = Vec::with_capacity(spec.tile_gates);
    for i in 0..spec.tile_gates {
        let op = (rng.below(OPS)) as u8;
        let a = rng.below(w + i) as u32;
        let b = rng.below(w + i) as u32;
        gates.push((op, a, b));
    }
    let out_src = (0..w).map(|_| rng.below(spec.tile_gates) as u32).collect();
    let out_init = (0..w)
        .map(|_| match rng.below(3) {
            0 => Bit::Zero,
            1 => Bit::One,
            _ => Bit::X,
        })
        .collect();
    TilePlan {
        gates,
        out_src,
        out_init,
    }
}

/// Emits a signal list with backslash continuations every 16 names.
fn write_signal_list<W: Write>(
    w: &mut W,
    kw: &str,
    mut names: impl Iterator<Item = String>,
) -> io::Result<()> {
    write!(w, "{kw}")?;
    for (n, name) in names.by_ref().enumerate() {
        if n > 0 && n.is_multiple_of(16) {
            write!(w, " \\\n ")?;
        }
        write!(w, " {name}")?;
    }
    writeln!(w)
}

fn cube_for(op: u8) -> &'static str {
    match op {
        0 => "11 1\n",
        1 => "00 0\n", // off-set form of OR, for spec coverage
        2 => "11 0\n",
        _ => "01 1\n10 1\n",
    }
}

fn sig_name(width: usize, idx: u32) -> String {
    if (idx as usize) < width {
        format!("x{idx}")
    } else {
        format!("g{}", idx as usize - width)
    }
}

/// The latch arity/type rotation used for tile output registers (and
/// mirrored by [`build_flat`]): every third register uses the 5-token
/// `re clk` form, every third the 3-token init form, the rest the bare
/// 2-token form (init unknown).
fn latch_line(j: usize, src: &str, out: &str, init: Bit) -> String {
    let digit = match init {
        Bit::Zero => '0',
        Bit::One => '1',
        Bit::X => '3',
    };
    match j % 3 {
        0 => format!(".latch {src} {out} re clk {digit}\n"),
        1 => format!(".latch {src} {out} {digit}\n"),
        _ => format!(".latch {src} {out}\n"),
    }
}

/// The init actually carried by register `j` given the arity rotation
/// of [`latch_line`] (the 2-token form drops the planned init).
fn effective_init(j: usize, planned: Bit) -> Bit {
    if j % 3 == 2 {
        Bit::X
    } else {
        planned
    }
}

/// Streams the hierarchical BLIF text of `spec` to `w`.
///
/// The top model comes first (so it is the default link root), followed
/// by the tile models and an uninstantiated `.blackbox` stub. Memory is
/// O(width + tile_gates) regardless of the chain length.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_hier<W: Write>(spec: &LargeSpec, w: &mut W) -> io::Result<()> {
    let width = spec.width;
    // Top model.
    writeln!(w, "# generated: {} ({} tiles)", spec.name, spec.tiles)?;
    writeln!(w, ".model {}", spec.name)?;
    write_signal_list(w, ".inputs", (0..width).map(|j| format!("pi{j}")))?;
    write_signal_list(w, ".outputs", (0..width).map(|j| format!("po{j}")))?;
    writeln!(w, ".clock clk")?;
    writeln!(w, ".attr generator workloads_large")?;
    writeln!(w, ".param TILES {}", spec.tiles)?;
    for t in 0..spec.tiles {
        let kind = t % spec.kinds.max(1);
        write!(w, ".subckt tile{kind}")?;
        for j in 0..width {
            if t == 0 {
                write!(w, " x{j}=pi{j}")?;
            } else {
                write!(w, " x{j}=b{t}_{j}")?;
            }
        }
        for j in 0..width {
            write!(w, " y{j}=b{}_{j}", t + 1)?;
        }
        writeln!(w)?;
    }
    for j in 0..width {
        writeln!(w, ".conn b{}_{j} z{j}", spec.tiles)?;
    }
    for j in 0..width {
        writeln!(w, ".names z{j} po{j}\n1 1")?;
    }
    writeln!(w, ".end")?;

    // Tile models.
    for kind in 0..spec.kinds.max(1) {
        let plan = tile_plan(spec, kind);
        writeln!(w, ".model tile{kind}")?;
        write_signal_list(w, ".inputs", (0..width).map(|j| format!("x{j}")))?;
        write_signal_list(w, ".outputs", (0..width).map(|j| format!("y{j}")))?;
        writeln!(w, ".clock clk")?;
        writeln!(w, ".cname tile{kind}_core")?;
        for (i, &(op, a, b)) in plan.gates.iter().enumerate() {
            if i % 64 == 0 {
                writeln!(w, ".attr row {}", i / 64)?;
            }
            writeln!(
                w,
                ".names {} {} g{i}",
                sig_name(width, a),
                sig_name(width, b)
            )?;
            w.write_all(cube_for(op).as_bytes())?;
        }
        for j in 0..width {
            let src = format!("g{}", plan.out_src[j]);
            let out = format!("q{j}");
            w.write_all(latch_line(j, &src, &out, plan.out_init[j]).as_bytes())?;
            writeln!(w, ".names q{j} y{j}\n1 1")?;
        }
        writeln!(w, ".end")?;
    }

    // An uninstantiated blackbox, as yosys flows carry around.
    writeln!(w, ".model {}_extram", spec.name)?;
    write_signal_list(w, ".inputs", (0..8).map(|j| format!("ad{j}")))?;
    write_signal_list(w, ".outputs", (0..8).map(|j| format!("dq{j}")))?;
    writeln!(w, ".blackbox")?;
    writeln!(w, ".end")?;
    Ok(())
}

/// Renders the design to a string (tests and small presets; the CLI
/// streams to a file instead).
pub fn hier_to_string(spec: &LargeSpec) -> String {
    let mut buf = Vec::new();
    write_hier(spec, &mut buf).expect("write to Vec cannot fail");
    String::from_utf8(buf).expect("generator emits ASCII")
}

/// Builds the flattened circuit of `spec` directly (no BLIF text, no
/// hierarchy) — the structural reference for the streaming front-end.
///
/// # Errors
///
/// Propagates circuit-construction errors (none expected).
pub fn build_flat(spec: &LargeSpec) -> Result<Circuit, NetlistError> {
    let width = spec.width;
    let mut c = Circuit::new(spec.name.clone());
    // PIs, gates and POs with their names below; two pins per tile gate,
    // one per buffer and PO; one register per tile output.
    let gates = spec.flat_gates();
    let (tiles, tile_gates) = (spec.tiles, spec.tile_gates);
    let tile_names = |n: usize| tiles * n * 3 + n * digit_sum(tiles) + tiles * digit_sum(n);
    let name_bytes = 9 * width + 4 * digit_sum(width) + tile_names(tile_gates) + tile_names(width);
    c.reserve(
        gates + 2 * width,
        name_bytes,
        gates + tiles * tile_gates + width,
        spec.flat_ffs(),
    )
    .expect("room for the flattened design");
    let plans: Vec<TilePlan> = (0..spec.kinds.max(1)).map(|k| tile_plan(spec, k)).collect();
    // Node names are formatted into one reused buffer.
    let mut buf = String::new();

    let mut bus: Vec<NodeId> = (0..width)
        .map(|j| c.add_input(name(&mut buf, format_args!("pi{j}"))))
        .collect::<Result<_, _>>()?;
    for t in 0..spec.tiles {
        let plan = &plans[t % spec.kinds.max(1)];
        let mut gates: Vec<NodeId> = Vec::with_capacity(plan.gates.len());
        for (i, &(op, a, b)) in plan.gates.iter().enumerate() {
            let g = c.add_gate(name(&mut buf, format_args!("t{t}_g{i}")), op_tt(op))?;
            for idx in [a, b] {
                let src = if (idx as usize) < width {
                    bus[idx as usize]
                } else {
                    gates[idx as usize - width]
                };
                c.connect(src, g, vec![])?;
            }
            gates.push(g);
        }
        let mut next_bus = Vec::with_capacity(width);
        for j in 0..width {
            let buf = c.add_gate(name(&mut buf, format_args!("t{t}_y{j}")), TruthTable::buf())?;
            let init = effective_init(j, plan.out_init[j]);
            c.connect(gates[plan.out_src[j] as usize], buf, vec![init])?;
            next_bus.push(buf);
        }
        bus = next_bus;
    }
    // `.conn` aliases then PO buffers, as the top model emits them.
    let z: Vec<NodeId> = (0..width)
        .map(|j| {
            let g = c.add_gate(name(&mut buf, format_args!("z{j}")), TruthTable::buf())?;
            c.connect(bus[j], g, vec![])?;
            Ok(g)
        })
        .collect::<Result<_, NetlistError>>()?;
    for (j, &zj) in z.iter().enumerate() {
        let pg = c.add_gate(name(&mut buf, format_args!("po{j}$g")), TruthTable::buf())?;
        c.connect(zj, pg, vec![])?;
        let po = c.add_output(name(&mut buf, format_args!("po{j}")))?;
        c.connect(pg, po, vec![])?;
    }
    c.shrink_to_fit();
    Ok(c)
}

/// The decimal digits of `0..n`, all told.
fn digit_sum(n: usize) -> usize {
    (0..n)
        .map(|x| x.checked_ilog10().map_or(1, |d| d as usize + 1))
        .sum()
}

/// `args` formatted into `buf`, which is reused across calls.
fn name<'b>(buf: &'b mut String, args: std::fmt::Arguments) -> &'b str {
    buf.clear();
    std::fmt::Write::write_fmt(buf, args).expect("formatting into a String cannot fail");
    buf
}

/// The committed large-suite presets.
pub fn large_presets() -> Vec<LargeSpec> {
    vec![
        LargeSpec {
            name: "hier100k".into(),
            width: 32,
            kinds: 4,
            tiles: 24,
            tile_gates: 4096,
            seed: 0xB11F_0001,
        },
        LargeSpec {
            name: "hier300k".into(),
            width: 48,
            kinds: 6,
            tiles: 48,
            tile_gates: 6144,
            seed: 0xB11F_0003,
        },
        LargeSpec {
            name: "hier1m".into(),
            width: 64,
            kinds: 8,
            tiles: 64,
            tile_gates: 15552,
            seed: 0xB11F_0010,
        },
    ]
}

/// Looks up a preset by name.
pub fn large_preset(name: &str) -> Option<LargeSpec> {
    large_presets().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LargeSpec {
        LargeSpec {
            name: "tiny".into(),
            width: 4,
            kinds: 2,
            tiles: 3,
            tile_gates: 10,
            seed: 42,
        }
    }

    #[test]
    fn plan_is_deterministic_and_acyclic() {
        let spec = tiny();
        let p1 = tile_plan(&spec, 0);
        let p2 = tile_plan(&spec, 0);
        assert_eq!(p1.gates, p2.gates);
        assert_ne!(p1.gates, tile_plan(&spec, 1).gates);
        for (i, &(_, a, b)) in p1.gates.iter().enumerate() {
            assert!((a as usize) < spec.width + i);
            assert!((b as usize) < spec.width + i);
        }
    }

    #[test]
    fn flat_counts_match_formulas() {
        let spec = tiny();
        let c = build_flat(&spec).unwrap();
        assert_eq!(c.num_gates(), spec.flat_gates());
        assert_eq!(c.ff_count_total(), spec.flat_ffs());
        assert_eq!(c.inputs().len(), spec.width);
        assert_eq!(c.outputs().len(), spec.width);
        netlist::validate(&c).unwrap();
    }

    #[test]
    fn hier_text_has_expected_sections() {
        let t = hier_to_string(&tiny());
        assert!(t.starts_with("# generated: tiny"));
        assert!(t.contains(".model tiny\n"));
        assert!(t.contains(".subckt tile1"));
        assert!(t.contains(".conn b3_0 z0"));
        assert!(t.contains(".blackbox"));
        assert!(t.contains(".latch"));
        assert!(t.contains("re clk"));
    }

    #[test]
    fn wide_designs_use_continuations() {
        let spec = LargeSpec {
            name: "wide".into(),
            width: 20,
            kinds: 1,
            tiles: 1,
            tile_gates: 4,
            seed: 1,
        };
        let t = hier_to_string(&spec);
        assert!(t.contains(" \\\n"), "continuations missing:\n{t}");
    }

    #[test]
    fn presets_resolve() {
        assert_eq!(large_presets().len(), 3);
        let p = large_preset("hier100k").unwrap();
        assert!(
            (90_000..110_000).contains(&p.flat_gates()),
            "{}",
            p.flat_gates()
        );
        let p = large_preset("hier1m").unwrap();
        assert!(
            (950_000..1_050_000).contains(&p.flat_gates()),
            "{}",
            p.flat_gates()
        );
        assert!(large_preset("nope").is_none());
    }
}
