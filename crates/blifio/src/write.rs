//! BLIF writing: round-trips everything the reader accepts, and
//! converts retiming-graph circuits back into model ASTs.
//!
//! [`model_from_circuit`] turns a circuit into an AST [`Model`]
//! (shared-vs-per-edge latch chain materialisation, on-set cube
//! emission, PO buffers), which is what both the KISS lowering and
//! [`write_circuit`] build on. `tests/golden/` pins the bytes
//! `write_circuit` produces.

use crate::ast::*;
use crate::intern::{Interner, Symbol};
use netlist::{Bit, Circuit};
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
                for (i, &s) in n.inputs.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(interner.resolve(s));
                }
                out.push(' ');
                out.push_str(interner.resolve(n.output));
                out.push('\n');
                for ci in 0..n.num_cubes() {
                    let (pattern, value) = n.cube(ci);
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

fn init_val(b: Bit) -> InitVal {
    match b {
        Bit::Zero => InitVal::Zero,
        Bit::One => InitVal::One,
        Bit::X => InitVal::Unknown,
    }
}

/// `name` with every whitespace character replaced by `_`, so it
/// survives as one BLIF token; borrowed unless it has whitespace.
pub(crate) fn sanitize(name: &str) -> Cow<'_, str> {
    if name.contains(char::is_whitespace) {
        Cow::Owned(
            name.chars()
                .map(|ch| if ch.is_whitespace() { '_' } else { ch })
                .collect(),
        )
    } else {
        Cow::Borrowed(name)
    }
}

/// The signal after `i` registers of `base`'s shared chain: `base`
/// itself, then `base@1`, `base@2`, …, formatted in `buf`.
fn shared_tap(interner: &mut Interner, buf: &mut String, base: &str, i: usize) -> Symbol {
    if i == 0 {
        return interner.intern(base);
    }
    buf.clear();
    let _ = write!(buf, "{base}@{i}");
    interner.intern(buf)
}

/// Converts a circuit into a single flat model, re-materialising FF
/// chains as latches.
pub fn model_from_circuit(c: &Circuit, interner: &mut Interner, line: u32) -> Model {
    let mut m = Model::new(sanitize(c.name()), line);
    for &v in c.inputs() {
        m.inputs.push(interner.intern(&sanitize(c.node(v).name())));
    }
    for &v in c.outputs() {
        m.outputs.push(interner.intern(&sanitize(c.node(v).name())));
        m.output_lines.push(line);
    }

    // Latch chains: shared per driver when the fanout chains agree on
    // their common prefix, per-edge otherwise.
    let mut edge_signal: Vec<Option<Symbol>> = vec![None; c.num_edges()];
    let mut latches: Vec<Command> = Vec::new();
    let mut merged: Vec<Bit> = Vec::new();
    // Scratch for the `{base}@…` tap names.
    let mut tap = String::new();
    for v in c.node_ids() {
        let node = c.node(v);
        if node.is_output() {
            continue;
        }
        let base = sanitize(node.name());
        let fanout = node.fanout();
        merged.clear();
        let mut shared_ok = true;
        for &e in fanout {
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
            for (i, &init) in merged.iter().enumerate() {
                latches.push(Command::Latch(Latch {
                    input: shared_tap(interner, &mut tap, &base, i),
                    output: shared_tap(interner, &mut tap, &base, i + 1),
                    ty: None,
                    control: None,
                    init: Some(init_val(init)),
                    line,
                }));
            }
            for &e in fanout {
                let w = c.edge(e).weight();
                edge_signal[e.index()] = Some(shared_tap(interner, &mut tap, &base, w));
            }
        } else {
            for &e in fanout {
                let mut prev = interner.intern(&base);
                for (i, &init) in c.edge(e).ffs().iter().enumerate() {
                    tap.clear();
                    let _ = write!(tap, "{base}@e{}@{}", e.index(), i + 1);
                    let next = interner.intern(&tap);
                    latches.push(Command::Latch(Latch {
                        input: prev,
                        output: next,
                        ty: None,
                        control: None,
                        init: Some(init_val(init)),
                        line,
                    }));
                    prev = next;
                }
                edge_signal[e.index()] = Some(prev);
            }
        }
    }
    m.commands.extend(latches);

    // Gates: on-set cubes (one per true row), constants as 0/1-cube
    // blocks.
    for v in c.gate_ids() {
        let node = c.node(v);
        let tt = node.function().expect("gate");
        let inputs: Vec<Symbol> = node
            .fanin()
            .iter()
            .map(|&e| edge_signal[e.index()].expect("driver seen"))
            .collect();
        let output = interner.intern(&sanitize(node.name()));
        let ones = tt.count_ones();
        let mut names = Names {
            inputs,
            output,
            pattern_blob: Vec::with_capacity(ones * tt.num_inputs()),
            values: Vec::with_capacity(ones),
            line,
        };
        if tt.num_inputs() == 0 {
            if tt.eval_row(0) {
                names.values.push(b'1');
            }
        } else {
            for r in 0..tt.num_rows() {
                if tt.eval_row(r) {
                    for i in 0..tt.num_inputs() {
                        names
                            .pattern_blob
                            .push(if r & (1 << i) != 0 { b'1' } else { b'0' });
                    }
                    names.values.push(b'1');
                }
            }
        }
        m.commands.push(Command::Names(names));
    }

    // PO buffers where the driving signal name differs from the PO name.
    for &po in c.outputs() {
        let node = c.node(po);
        let e = node.fanin()[0];
        let sig = edge_signal[e.index()].expect("driver seen");
        let name = interner.intern(&sanitize(node.name()));
        if sig != name {
            m.commands.push(Command::Names(Names {
                inputs: vec![sig],
                output: name,
                pattern_blob: vec![b'1'],
                values: vec![b'1'],
                line,
            }));
        }
    }
    m
}

/// Wraps a circuit as a one-model [`BlifFile`].
pub fn from_circuit(c: &Circuit) -> BlifFile {
    let mut interner = Interner::new();
    let model = model_from_circuit(c, &mut interner, 1);
    BlifFile {
        models: vec![model],
        interner,
    }
}

/// Serialises a circuit to BLIF text through the AST writer.
pub fn write_circuit(c: &Circuit) -> String {
    write_file(&from_circuit(c))
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
