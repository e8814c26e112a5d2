//! BLIF writing: round-trips everything the reader accepts, and writes
//! retiming-graph circuits as BLIF.
//!
//! [`write_file`] serialises a parsed file's models. [`write_circuit`]
//! writes a circuit straight from its nodes, edges and names, with no
//! model in between: FF chains become latches (one shared chain per
//! driver where the fanout chains agree, one per edge otherwise), gates
//! become on-set cubes, and outputs get buffers where needed. It is the
//! one circuit-to-BLIF path; the KISS lowering reads its text back.
//! `tests/golden/` pins the bytes `write_circuit` produces.

use crate::ast::*;
use crate::{Interner, Symbol};
use netlist::{Bit, Circuit, EdgeId};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Serialises a whole parsed file back to BLIF text.
pub fn write_file(file: &BlifFile) -> String {
    let mut out = String::new();
    for model in &file.models {
        write_model(model, &file.interner, &mut out);
    }
    out
}

fn push_syms(out: &mut String, interner: &Interner, kw: &str, syms: &[Symbol]) {
    if syms.is_empty() {
        return;
    }
    out.push_str(kw);
    for &s in syms {
        out.push(' ');
        out.push_str(interner.resolve(s));
    }
    out.push('\n');
}

/// Serialises one model.
pub fn write_model(model: &Model, interner: &Interner, out: &mut String) {
    let _ = writeln!(out, ".model {}", model.name);
    push_syms(out, interner, ".inputs", &model.inputs);
    push_syms(out, interner, ".outputs", &model.outputs);
    push_syms(out, interner, ".clock", &model.clocks);
    if model.blackbox {
        out.push_str(".blackbox\n");
    }
    for cmd in &model.commands {
        match cmd {
            Command::Names(n) => {
                // `.names {inputs} {output}` — constant blocks keep a
                // double space (empty input join); the golden corpus
                // pins these bytes.
                out.push_str(".names ");
                for (i, &s) in n.inputs(model).iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(interner.resolve(s));
                }
                out.push(' ');
                out.push_str(interner.resolve(n.output));
                out.push('\n');
                for ci in 0..n.num_cubes() {
                    let (pattern, value) = n.cube(model, ci);
                    if !pattern.is_empty() {
                        out.push_str(std::str::from_utf8(pattern).expect("cube is ASCII"));
                        out.push(' ');
                    }
                    out.push(value as char);
                    out.push('\n');
                }
            }
            Command::Latch(l) => {
                let _ = write!(
                    out,
                    ".latch {} {}",
                    interner.resolve(l.input),
                    interner.resolve(l.output)
                );
                if let Some(ty) = l.ty {
                    let ctrl = l.control.map_or("NIL", |c| interner.resolve(c));
                    let _ = write!(out, " {} {ctrl}", ty.as_str());
                }
                if let Some(init) = l.init {
                    let _ = write!(out, " {}", init.as_char());
                }
                out.push('\n');
            }
            Command::Subckt(s) => {
                let _ = write!(out, ".subckt {}", interner.resolve(s.model));
                for &(f, a) in &s.conns {
                    let _ = write!(out, " {}={}", interner.resolve(f), interner.resolve(a));
                }
                out.push('\n');
            }
            Command::Gate(g) => {
                let _ = write!(out, ".gate {}", interner.resolve(g.cell));
                for &(f, a) in &g.conns {
                    let _ = write!(out, " {}={}", interner.resolve(f), interner.resolve(a));
                }
                out.push('\n');
            }
            Command::Mlatch(ml) => {
                let _ = write!(out, ".mlatch {}", interner.resolve(ml.cell));
                for &(f, a) in &ml.conns {
                    let _ = write!(out, " {}={}", interner.resolve(f), interner.resolve(a));
                }
                match (ml.control, ml.init) {
                    (Some(c), _) => {
                        let _ = write!(out, " {}", interner.resolve(c));
                    }
                    (None, Some(_)) => out.push_str(" NIL"),
                    (None, None) => {}
                }
                if let Some(init) = ml.init {
                    let _ = write!(out, " {}", init.as_char());
                }
                out.push('\n');
            }
            Command::Kiss(k) => {
                out.push_str(".start_kiss\n");
                out.push_str(&k.text);
                out.push_str(".end_kiss\n");
            }
            Command::Attr { kind, args, .. } => {
                out.push_str(kind.as_str());
                for a in args {
                    out.push(' ');
                    out.push_str(a);
                }
                out.push('\n');
            }
            Command::Conn { from, to, .. } => {
                let _ = writeln!(
                    out,
                    ".conn {} {}",
                    interner.resolve(*from),
                    interner.resolve(*to)
                );
            }
            Command::Directive { name, args, .. } => {
                out.push('.');
                out.push_str(name);
                for a in args {
                    out.push(' ');
                    out.push_str(a);
                }
                out.push('\n');
            }
        }
    }
    out.push_str(".end\n");
}

/// `name` with every whitespace character replaced by `_`, so it
/// survives as one BLIF token; borrowed unless it has whitespace.
pub(crate) fn sanitize(name: &str) -> Cow<'_, str> {
    if name.bytes().all(|b| b.is_ascii_graphic()) || !name.contains(char::is_whitespace) {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(
            name.chars()
                .map(|ch| if ch.is_whitespace() { '_' } else { ch })
                .collect(),
        )
    }
}

/// The initial-value digit of a latch holding `b` (`X` is `3`, unknown).
fn init_char(b: Bit) -> char {
    match b {
        Bit::Zero => '0',
        Bit::One => '1',
        Bit::X => '3',
    }
}

/// Appends the signal that edge `e` reads: its driver's name after the
/// edge's registers. A driver with a shared chain names its taps
/// `{name}@1`, `{name}@2`, …; the chain of edge `e` of any other driver
/// is `{name}@e{e}@1`, ….
fn push_signal(out: &mut String, c: &Circuit, shared: &[bool], e: EdgeId) {
    let edge = c.edge(e);
    let driver = edge.from();
    out.push_str(&sanitize(c.node(driver).name()));
    match edge.weight() {
        0 => {}
        w if shared[driver.index()] => {
            let _ = write!(out, "@{w}");
        }
        w => {
            let _ = write!(out, "@e{}@{w}", e.index());
        }
    }
}

/// Longest register suffix [`push_signal`] or a latch line writes:
/// `@e{edge}@{bit}`, two `u32`s.
const SUFFIX_MAX: usize = 2 + 10 + 1 + 10;

/// An upper bound on the length of [`write_circuit`]'s text, so the
/// writer allocates once. Each line is bounded by its names, register
/// suffixes of [`SUFFIX_MAX`] bytes and a fixed rest.
fn text_bound(c: &Circuit) -> usize {
    let name = |v| c.node(v).name().len();
    let signal = |e| {
        let edge = c.edge(e);
        name(edge.from()) + if edge.weight() > 0 { SUFFIX_MAX } else { 0 }
    };
    let ports = c.inputs().iter().chain(c.outputs());
    let mut n = 32 + c.name().len() + ports.map(|&v| 1 + name(v)).sum::<usize>();
    for e in c.edge_ids() {
        let edge = c.edge(e);
        n += edge.weight() * (2 * (name(edge.from()) + SUFFIX_MAX) + 12);
    }
    for v in c.gate_ids() {
        let node = c.node(v);
        let tt = node.function().expect("gate");
        n += 9 + name(v) + node.fanin().iter().map(|&e| signal(e) + 1).sum::<usize>();
        n += tt.count_ones() * (tt.num_inputs() + 3);
    }
    for &po in c.outputs() {
        n += 16 + signal(c.node(po).fanin()[0]) + name(po);
    }
    n
}

/// Serialises a circuit to BLIF text as one flat model, straight from
/// the circuit and its own names.
///
/// FF chains become latches: one chain per driver, shared by its fanout
/// edges, when their chains agree on their common prefix (an `X`
/// agrees with anything); a chain per edge otherwise. Gates are written
/// as their on-set cubes (a constant as a `1` cube or none), and each
/// output whose driving signal has another name gets a buffer. The
/// returned string holds no spare capacity.
pub fn write_circuit(c: &Circuit) -> String {
    let bound = text_bound(c);
    let mut out = String::with_capacity(bound);
    out.push_str(".model ");
    out.push_str(&sanitize(c.name()));
    out.push('\n');
    for (kw, ids) in [(".inputs", c.inputs()), (".outputs", c.outputs())] {
        if ids.is_empty() {
            continue;
        }
        out.push_str(kw);
        for &v in ids {
            out.push(' ');
            out.push_str(&sanitize(c.node(v).name()));
        }
        out.push('\n');
    }

    // Latch chains, driver by driver.
    let mut shared = vec![false; c.num_nodes()];
    let mut merged: Vec<Bit> = Vec::new();
    for v in c.node_ids() {
        let node = c.node(v);
        if node.is_output() {
            continue;
        }
        let name = sanitize(node.name());
        merged.clear();
        let mut shared_ok = true;
        for &e in node.fanout() {
            let ch = c.edge(e).ffs();
            if ch.len() > merged.len() {
                merged.resize(ch.len(), Bit::X);
            }
            for (i, &b) in ch.iter().enumerate() {
                match merged[i].merge(b) {
                    Some(mb) => merged[i] = mb,
                    None => shared_ok = false,
                }
            }
        }
        if shared_ok {
            shared[v.index()] = true;
            for (i, &init) in merged.iter().enumerate() {
                out.push_str(".latch ");
                out.push_str(&name);
                if i > 0 {
                    let _ = write!(out, "@{i}");
                }
                let _ = writeln!(out, " {name}@{} {}", i + 1, init_char(init));
            }
        } else {
            for &e in node.fanout() {
                for (i, &init) in c.edge(e).ffs().iter().enumerate() {
                    out.push_str(".latch ");
                    out.push_str(&name);
                    if i > 0 {
                        let _ = write!(out, "@e{}@{i}", e.index());
                    }
                    let _ = writeln!(out, " {name}@e{}@{} {}", e.index(), i + 1, init_char(init));
                }
            }
        }
    }

    // Gates: on-set cubes, one per true row. A constant block keeps a
    // double space after `.names` (its empty input list).
    for v in c.gate_ids() {
        let node = c.node(v);
        let tt = node.function().expect("gate");
        out.push_str(".names ");
        for (i, &e) in node.fanin().iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            push_signal(&mut out, c, &shared, e);
        }
        out.push(' ');
        out.push_str(&sanitize(node.name()));
        out.push('\n');
        let k = tt.num_inputs();
        if k == 0 {
            if tt.eval_row(0) {
                out.push_str("1\n");
            }
            continue;
        }
        for r in (0..tt.num_rows()).filter(|&r| tt.eval_row(r)) {
            out.extend((0..k).map(|i| if r & (1 << i) != 0 { '1' } else { '0' }));
            out.push_str(" 1\n");
        }
    }

    // Output buffers where the driving signal's name differs from the
    // output's.
    let mut sig = String::new();
    for &po in c.outputs() {
        let node = c.node(po);
        sig.clear();
        push_signal(&mut sig, c, &shared, node.fanin()[0]);
        let name = sanitize(node.name());
        if sig != name {
            let _ = writeln!(out, ".names {sig} {name}\n1 1");
        }
    }
    out.push_str(".end\n");
    debug_assert!(out.len() <= bound, "text longer than its bound {bound}");
    // The text outlives the writer (a caller may hold it through a
    // re-read), so it keeps none of the bound's slack.
    out.shrink_to_fit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_str;
    use netlist::TruthTable;

    #[test]
    fn write_circuit_matches_golden_bytes() {
        // Shared chain, inconsistent chain, PO buffer — all paths.
        let mut c = Circuit::new("taps");
        let a = c.add_input("a").unwrap();
        let g1 = c.add_gate("g1", TruthTable::buf()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g1, vec![Bit::Zero, Bit::One]).unwrap();
        c.connect(a, g2, vec![Bit::Zero]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        assert_eq!(
            write_circuit(&c),
            include_str!("../tests/golden/shared_latch_taps.blif")
        );

        let mut d = Circuit::new("conflict");
        let a = d.add_input("a").unwrap();
        let g1 = d.add_gate("g1", TruthTable::buf()).unwrap();
        let g2 = d.add_gate("g2", TruthTable::buf()).unwrap();
        let o1 = d.add_output("o1").unwrap();
        let o2 = d.add_output("o2").unwrap();
        d.connect(a, g1, vec![Bit::Zero]).unwrap();
        d.connect(a, g2, vec![Bit::One]).unwrap();
        d.connect(g1, o1, vec![]).unwrap();
        d.connect(g2, o2, vec![]).unwrap();
        assert_eq!(
            write_circuit(&d),
            include_str!("../tests/golden/inconsistent_sharing.blif")
        );
    }

    #[test]
    fn file_roundtrip_is_a_fixed_point() {
        let src = "\
.model top
.inputs a b
.outputs z
.clock clk
.attr src \"top.v:3\"
.names a b t
11 1
.latch t u re clk 0
.latch t v 1
.latch t w
.subckt leaf x=u y=z
.gate nand2 a=v b=w o=dead
.mlatch dff d=a q=dq NIL 1
.conn dq dead2
.delay a 3
.end
.model leaf
.inputs x
.outputs y
.cname buf0
.names x y
1 1
.end
.model bb
.inputs p
.outputs q
.blackbox
.end
";
        let f1 = parse_str(src).unwrap();
        let t1 = write_file(&f1);
        let f2 = parse_str(&t1).unwrap();
        let t2 = write_file(&f2);
        assert_eq!(t1, t2);
        // Everything survived: count commands per model.
        assert_eq!(f1.models.len(), f2.models.len());
        for (m1, m2) in f1.models.iter().zip(f2.models.iter()) {
            assert_eq!(m1.commands.len(), m2.commands.len(), "model {}", m1.name);
        }
    }

    #[test]
    fn kiss_roundtrips_verbatim() {
        let src = ".model f\n.inputs i\n.outputs o\n.start_kiss\n.i 1\n.o 1\n.s 1\n.r A\n1 A A 1\n.end_kiss\n.end\n";
        let f = parse_str(src).unwrap();
        let t = write_file(&f);
        assert!(
            t.contains(".start_kiss\n.i 1\n.o 1\n.s 1\n.r A\n1 A A 1\n.end_kiss\n"),
            "{t}"
        );
        let f2 = parse_str(&t).unwrap();
        assert_eq!(write_file(&f2), t);
    }
}
