//! Workload inputs: everything the program receives is BLIF text
//! rendered here from the run's seed.
//!
//! Seed 0 renders the committed designs exactly: the Table-1 presets
//! with their per-name FNV seeds and the `workloads::large` designs with
//! their committed seeds. A nonzero seed `S` keeps every design's shape
//! and draws another instance of it:
//!
//! * a Table-1 circuit keeps its committed graph; `S` shuffles node ids,
//!   fanout orders and gate names. Node ids drive every tie-break in the
//!   mapper, so the text and the order of work differ per seed, while Φ,
//!   which is optimal, may not;
//! * the two `workloads::large` designs keep their committed tile plans
//!   and node order; `S` renames their gates (`hier_part`) or their tile
//!   nets (`ingest_100k`).
//!
//! Re-drawing the generators themselves would move the measured work
//! more than any bound a run of a few circuits can hold. Over 40
//! re-drawn seeds (`name@S`), TurboMap-frt's time on s5378 and s9234.1
//! had an interquartile range of 45–49% of its median. Re-drawn tile
//! plans (`LargeSpec.seed ^ S`) moved hier300k's Φ between 26 and 29 and
//! its peak RSS by 13%, and one of 12 re-drawn 6-tile hier100k chains
//! failed to stitch ("inconsistent FF fanout sharing"). Shuffling
//! `hier_part`'s node order moves its block assignment: the op's wall
//! then had an interquartile range of 19% of its median over 12 seeds.

use engine::Rng64;
use netlist::{Circuit, EdgeId, NodeId, NodeKind};
use workloads::LargeSpec;

/// The LUT input bound of every mapping (the paper's Table 1).
pub const K: usize = 5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TurboMap-frt on ISCAS-style circuits: FRTcheck cut queries.
    IscasFrt,
    /// All three algorithms on the 14 MCNC-style FSMs.
    FsmTable1,
    /// Partition-and-conquer mapping of a hierarchical design.
    HierPart,
    /// BLIF round trip of a 100k-gate design: no mapping.
    Ingest,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::IscasFrt,
        Workload::FsmTable1,
        Workload::HierPart,
        Workload::Ingest,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IscasFrt => "iscas_frt",
            Workload::FsmTable1 => "fsm_table1",
            Workload::HierPart => "hier_part",
            Workload::Ingest => "ingest_100k",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The Table-1 ISCAS-style circuits of `iscas_frt`. s15850.1 (27–30 s
/// per map) and s38417 do not fit a run.
const ISCAS: [&str; 2] = ["s5378", "s9234.1"];

/// The circuits of the smoke scale.
const SMOKE_PRESETS: [&str; 2] = ["bbtas", "dk17"];

/// Blocks and block workers of `hier_part`.
pub const HIER_BLOCKS: usize = 4;
pub const HIER_WORKERS: usize = 2;

/// What an input must map or round-trip to, independent of the mapper.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A Table-1 preset: Φ must equal the committed seed-0 Φ; at seed 0
    /// LUTs and FFs must equal the committed rows too.
    Preset(&'static str),
    /// A flattened large design: exact gate and FF counts.
    Flat { gates: usize, ffs: usize },
    /// No reference beyond the generic checks.
    None,
}

/// One rendered input.
#[derive(Debug, Clone, PartialEq)]
pub struct Source {
    /// Circuit name.
    pub name: String,
    /// The BLIF text the op reads.
    pub text: String,
    /// The mapper-independent reference.
    pub expect: Expect,
}

/// `hier_part`'s design: the first 12 tiles of the committed hier100k
/// chain (its seed and tile plans), 49.6k gates, 384 FFs.
fn hier_spec(smoke: bool) -> LargeSpec {
    let mut spec = workloads::large_preset("hier100k").expect("hier100k is a committed preset");
    spec.tiles = 12;
    spec.name = "hier50k".into();
    if smoke {
        spec = tiny_spec();
    }
    spec
}

/// `ingest_100k`'s design: the committed hier100k preset.
fn ingest_spec(smoke: bool) -> LargeSpec {
    if smoke {
        return tiny_spec();
    }
    workloads::large_preset("hier100k").expect("hier100k is a committed preset")
}

fn tiny_spec() -> LargeSpec {
    LargeSpec {
        name: "tiny".into(),
        width: 8,
        kinds: 2,
        tiles: 4,
        tile_gates: 64,
        seed: 0xB11F_0001,
    }
}

fn presets_of(w: Workload, smoke: bool) -> Vec<workloads::Preset> {
    workloads::presets()
        .into_iter()
        .filter(|p| {
            if smoke {
                SMOKE_PRESETS.contains(&p.name)
            } else if w == Workload::IscasFrt {
                ISCAS.contains(&p.name)
            } else {
                !p.iscas
            }
        })
        .collect()
}

/// Renders a workload's inputs from `seed`.
///
/// # Errors
///
/// A message when a generator or the relabelling fails (a bug).
pub fn render(w: Workload, seed: u64, smoke: bool) -> Result<Vec<Source>, String> {
    match w {
        Workload::IscasFrt | Workload::FsmTable1 => presets_of(w, smoke)
            .iter()
            .map(|p| {
                let c = relabel(&workloads::build_preset(p), seed, fnv(p.name), true)?;
                Ok(Source {
                    name: p.name.to_string(),
                    text: blifio::write_circuit(&c),
                    expect: Expect::Preset(p.name),
                })
            })
            .collect(),
        Workload::HierPart => {
            let spec = hier_spec(smoke);
            let flat = workloads::build_flat(&spec).map_err(|e| format!("{}: {e}", spec.name))?;
            let c = relabel(&flat, seed, spec.seed, false)?;
            Ok(vec![Source {
                name: spec.name.clone(),
                text: blifio::write_circuit(&c),
                expect: Expect::None,
            }])
        }
        Workload::Ingest => {
            let spec = ingest_spec(smoke);
            let text = workloads::hier_to_string(&spec);
            Ok(vec![Source {
                name: spec.name.clone(),
                text: rename_tile_nets(&text, seed, spec.tile_gates),
                expect: Expect::Flat {
                    gates: spec.flat_gates(),
                    ffs: spec.flat_ffs(),
                },
            }])
        }
    }
}

/// FNV-1a, so each preset's shuffle differs at one seed.
fn fnv(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Renames every tile-internal net `g<i>` of a `write_hier` text to
/// `g<σ(i)>`, for a permutation σ drawn from `seed`. Statement order,
/// and with it the flattened node order, is kept. Seed 0 returns the
/// text unchanged.
fn rename_tile_nets(text: &str, seed: u64, tile_gates: usize) -> String {
    if seed == 0 {
        return text.to_string();
    }
    let mut perm: Vec<usize> = (0..tile_gates).collect();
    Rng64::new(seed).shuffle(&mut perm);
    let mut out = String::with_capacity(text.len() + text.len() / 16);
    for piece in text.split_inclusive([' ', '\n']) {
        let word = piece.trim_end_matches([' ', '\n']);
        let index = word
            .strip_prefix('g')
            .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|d| d.parse::<usize>().ok());
        match index {
            Some(i) if i < tile_gates => out.push_str(&format!("g{}", perm[i])),
            _ => out.push_str(word),
        }
        out.push_str(&piece[word.len()..]);
    }
    out
}

/// An isomorphic copy of `c` with its gates renamed by a permutation
/// drawn from `seed ^ salt`; with `reorder`, node ids and every
/// driver's fanout order are shuffled too. Interface order, pin order,
/// functions, registers and initial values are kept. Seed 0 returns `c`
/// unchanged.
///
/// # Errors
///
/// A message when a new gate name collides with an interface name.
pub fn relabel(c: &Circuit, seed: u64, salt: u64, reorder: bool) -> Result<Circuit, String> {
    if seed == 0 {
        return Ok(c.clone());
    }
    let mut rng = Rng64::new(seed ^ salt);
    let mut order: Vec<NodeId> = c.node_ids().collect();
    let mut sinks: Vec<NodeId> = c.node_ids().collect();
    if reorder {
        rng.shuffle(&mut order);
        rng.shuffle(&mut sinks);
    }
    let mut tags: Vec<usize> = (0..order.len()).collect();
    rng.shuffle(&mut tags);
    let mut out = Circuit::new(c.name());
    let mut map: Vec<Option<NodeId>> = vec![None; c.num_nodes()];
    let err = |e: netlist::NetlistError| format!("relabelling {}: {e}", c.name());
    // A slot drawn for an input or output takes the next one in
    // declaration order, so ids move but the interface order does not.
    let (mut next_in, mut next_out) = (c.inputs().iter(), c.outputs().iter());
    for (&slot, tag) in order.iter().zip(tags) {
        let (v, id) = match c.node(slot).kind() {
            NodeKind::Input => {
                let v = *next_in.next().expect("one slot per input");
                (v, out.add_input(c.node(v).name()))
            }
            NodeKind::Output => {
                let v = *next_out.next().expect("one slot per output");
                (v, out.add_output(c.node(v).name()))
            }
            NodeKind::Gate(tt) => (slot, out.add_gate(format!("n{tag}_"), tt.clone())),
        };
        map[v.index()] = Some(id.map_err(err)?);
    }
    let new_id = |v: NodeId| map[v.index()].expect("every node was mapped");
    // Edges are connected sink by sink, each sink's pins in order. In
    // node order that reproduces every fanout order exactly (edge ids
    // grow with each connection); in shuffled order it shuffles them.
    let mut edges: Vec<EdgeId> = Vec::with_capacity(c.num_edges());
    if reorder {
        for &sink in &sinks {
            edges.extend_from_slice(c.node(sink).fanin());
        }
    } else {
        edges.extend(c.edge_ids());
    }
    for e in edges {
        let edge = c.edge(e);
        out.connect(new_id(edge.from()), new_id(edge.to()), edge.ffs().to_vec())
            .map_err(err)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_renders_the_committed_presets() {
        let srcs = render(Workload::FsmTable1, 0, true).unwrap();
        let p = workloads::presets()
            .into_iter()
            .find(|p| p.name == "bbtas")
            .unwrap();
        let committed = blifio::write_circuit(&workloads::build_preset(&p));
        assert_eq!(srcs[0].text, committed);
        let ingest = render(Workload::Ingest, 0, true).unwrap();
        assert_eq!(ingest[0].text, workloads::hier_to_string(&tiny_spec()));
    }

    #[test]
    fn nonzero_seed_keeps_the_shape_and_changes_the_text() {
        let a = render(Workload::FsmTable1, 0, true).unwrap();
        let b = render(Workload::FsmTable1, 7, true).unwrap();
        assert_eq!(b, render(Workload::FsmTable1, 7, true).unwrap());
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.text, y.text);
            let cx = blifio::read_circuit_str(&x.text).unwrap();
            let cy = blifio::read_circuit_str(&y.text).unwrap();
            assert_eq!(cx.num_gates(), cy.num_gates());
            assert_eq!(cx.ff_count_total(), cy.ff_count_total());
            assert_eq!(cx.clock_period().unwrap(), cy.clock_period().unwrap());
            let equiv = netlist::random_equiv(&cx, &cy, 256, 1).unwrap();
            assert!(equiv.is_equivalent(), "{}", x.name);
        }
    }

    #[test]
    fn renamed_tile_nets_flatten_to_the_same_netlist() {
        let spec = tiny_spec();
        let text = workloads::hier_to_string(&spec);
        let renamed = render(Workload::Ingest, 9, true).unwrap().remove(0).text;
        assert_ne!(text, renamed);
        let a = blifio::read_circuit_str(&text).unwrap();
        let b = blifio::read_circuit_str(&renamed).unwrap();
        assert_eq!(a.num_gates(), b.num_gates());
        assert_eq!(a.clock_period().unwrap(), b.clock_period().unwrap());
        for v in a.node_ids() {
            assert_eq!(a.node(v).fanin().len(), b.node(v).fanin().len());
        }
        assert!(netlist::random_equiv(&a, &b, 256, 1)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn renaming_alone_keeps_every_id_and_pin() {
        let spec = tiny_spec();
        let c = workloads::build_flat(&spec).unwrap();
        let r = relabel(&c, 5, spec.seed, false).unwrap();
        assert_ne!(blifio::write_circuit(&c), blifio::write_circuit(&r));
        for v in c.node_ids() {
            let pins = |x: &Circuit| -> Vec<(NodeId, usize)> {
                let fanin = x.node(v).fanin().iter().map(|&e| x.edge(e));
                fanin.map(|e| (e.from(), e.weight())).collect()
            };
            assert_eq!(pins(&c), pins(&r));
            assert_eq!(c.node(v).fanout(), r.node(v).fanout());
        }
    }
}
