//! The streaming BLIF parser: logical lines → [`BlifFile`].
//!
//! Grammar coverage (see DESIGN.md "Front-end & ingestion" for the full
//! table): the 1992 spec's logic/latch/hierarchy/FSM sections plus the
//! yosys extensions. `.exdc` and `.search` are rejected with a
//! diagnostic — don't-care networks and file inclusion are out of scope
//! for a mapping front-end.

use crate::ast::*;
use crate::diag::{BlifError, Diag};
use crate::scan::{LineBuf, Scanner, DEFAULT_CHUNK};
use crate::{Interner, Symbol};
use netlist::MAX_INPUTS;
use std::io::Read;
use std::path::Path;

/// Parser tuning.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Streaming chunk size in bytes.
    pub chunk: usize,
}

impl Default for ParseOptions {
    fn default() -> ParseOptions {
        ParseOptions {
            chunk: DEFAULT_CHUNK,
        }
    }
}

/// Parses BLIF from any reader, streaming through a fixed-size buffer.
///
/// # Errors
///
/// Returns a positioned [`Diag`] on malformed input, or an I/O error.
pub fn parse_reader<R: Read>(src: R, opts: &ParseOptions) -> Result<BlifFile, BlifError> {
    let mut sc = Scanner::with_chunk(src, opts.chunk);
    let mut lb = LineBuf::default();
    let mut p = Parser::default();
    while sc.next_line(&mut lb)? {
        p.line(&lb)?;
    }
    p.finish()
}

/// Parses BLIF from an in-memory string.
///
/// # Errors
///
/// See [`parse_reader`].
pub fn parse_str(text: &str) -> Result<BlifFile, BlifError> {
    parse_reader(text.as_bytes(), &ParseOptions::default())
}

/// Parses BLIF from a file path (streaming; the file is never read
/// whole).
///
/// # Errors
///
/// See [`parse_reader`]; additionally I/O errors opening the file.
pub fn parse_path(path: impl AsRef<Path>) -> Result<BlifFile, BlifError> {
    let f = std::fs::File::open(path)?;
    parse_reader(f, &ParseOptions::default())
}

#[derive(Default)]
struct Parser {
    interner: Interner,
    models: Vec<Model>,
    cur: Option<Model>,
    names_open: bool,
    kiss: Option<KissBlock>,
    ended: bool,
}

impl Parser {
    fn model_mut(&mut self, line: u32) -> &mut Model {
        if self.cur.is_none() {
            // Directives before any `.model` open an implicit model.
            self.cur = Some(Model::new("unnamed", line));
        }
        self.cur.as_mut().expect("just set")
    }

    fn close_model(&mut self) {
        self.names_open = false;
        if let Some(m) = self.cur.take() {
            self.models.push(m);
        }
    }

    fn line(&mut self, lb: &LineBuf) -> Result<(), Diag> {
        debug_assert!(!lb.is_empty());
        let line = lb.line() as u32;
        let kw = lb.tok(0);

        // Inside an embedded KISS block everything until `.end_kiss` is
        // FSM text, kept verbatim (one source line per logical line).
        if let Some(block) = &mut self.kiss {
            if kw == ".end_kiss" {
                let block = self.kiss.take().expect("in kiss");
                self.model_mut(line).commands.push(Command::Kiss(block));
            } else {
                block.text.push_str(&lb.joined());
                block.text.push('\n');
            }
            return Ok(());
        }

        if !kw.starts_with('.') {
            return self.cube_line(lb);
        }
        if self.ended && kw != ".model" {
            return Err(lb.diag_at(0, "content after .end"));
        }

        // Any dot-directive terminates an open `.names` cube list.
        self.names_open = false;

        match kw {
            ".model" => {
                self.close_model();
                self.ended = false;
                let name = if lb.len() > 1 { lb.tok(1) } else { "unnamed" };
                if self.models.iter().any(|m| m.name == name) {
                    return Err(lb.diag_at(1, format!("duplicate model `{name}`")));
                }
                self.cur = Some(Model::new(name, line));
            }
            ".inputs" => {
                let syms: Vec<_> = (1..lb.len())
                    .map(|i| self.interner.intern(lb.tok(i)))
                    .collect();
                self.model_mut(line).inputs.extend(syms);
            }
            ".outputs" => {
                let syms: Vec<(_, u32)> = (1..lb.len())
                    .map(|i| (self.interner.intern(lb.tok(i)), lb.pos(i).0 as u32))
                    .collect();
                let m = self.model_mut(line);
                for (s, l) in syms {
                    m.outputs.push(s);
                    m.output_lines.push(l);
                }
            }
            ".clock" => {
                let syms: Vec<_> = (1..lb.len())
                    .map(|i| self.interner.intern(lb.tok(i)))
                    .collect();
                self.model_mut(line).clocks.extend(syms);
            }
            ".names" => {
                if lb.len() < 2 {
                    return Err(lb.diag_at(0, ".names needs an output signal"));
                }
                if lb.len() - 2 > MAX_INPUTS {
                    return Err(lb.diag_at(
                        0,
                        format!(
                            ".names with {} inputs exceeds limit {MAX_INPUTS}",
                            lb.len() - 2
                        ),
                    ));
                }
                self.model_mut(line);
                let m = self.cur.as_mut().expect("just opened");
                let pins_at = m.pins.len();
                for i in 1..lb.len() - 1 {
                    m.pins.push(self.interner.intern(lb.tok(i)));
                }
                let output = self.interner.intern(lb.tok(lb.len() - 1));
                m.commands.push(Command::Names(Names {
                    output,
                    pins_at,
                    num_inputs: (lb.len() - 2) as u32,
                    cubes_at: m.cubes.len(),
                    num_cubes: 0,
                    line,
                }));
                self.names_open = true;
            }
            ".latch" => {
                let latch = self.parse_latch(lb, line)?;
                self.model_mut(line).commands.push(Command::Latch(latch));
            }
            ".subckt" => {
                if lb.len() < 2 {
                    return Err(lb.diag_at(0, ".subckt needs a model name"));
                }
                let model = self.interner.intern(lb.tok(1));
                let conns = self.parse_conns(lb, 2, lb.len())?;
                self.model_mut(line)
                    .commands
                    .push(Command::Subckt(Subckt { model, conns, line }));
            }
            ".gate" => {
                if lb.len() < 2 {
                    return Err(lb.diag_at(0, ".gate needs a cell name"));
                }
                let cell = self.interner.intern(lb.tok(1));
                let conns = self.parse_conns(lb, 2, lb.len())?;
                self.model_mut(line)
                    .commands
                    .push(Command::Gate(LibGate { cell, conns, line }));
            }
            ".mlatch" => {
                let ml = self.parse_mlatch(lb, line)?;
                self.model_mut(line).commands.push(Command::Mlatch(ml));
            }
            ".start_kiss" => {
                self.model_mut(line);
                self.kiss = Some(KissBlock {
                    text: String::new(),
                    line,
                });
            }
            ".end_kiss" => return Err(lb.diag_at(0, ".end_kiss without .start_kiss")),
            ".conn" => {
                if lb.len() != 3 {
                    return Err(lb.diag_at(0, ".conn needs exactly two signals"));
                }
                let from = self.interner.intern(lb.tok(1));
                let to = self.interner.intern(lb.tok(2));
                self.model_mut(line)
                    .commands
                    .push(Command::Conn { from, to, line });
            }
            ".attr" | ".param" | ".cname" => {
                let kind = match kw {
                    ".attr" => AttrKind::Attr,
                    ".param" => AttrKind::Param,
                    _ => AttrKind::Cname,
                };
                let args: Vec<String> = (1..lb.len()).map(|i| lb.tok(i).to_string()).collect();
                self.model_mut(line)
                    .commands
                    .push(Command::Attr { kind, args, line });
            }
            ".blackbox" => self.model_mut(line).blackbox = true,
            ".end" => {
                self.close_model();
                self.ended = true;
            }
            ".exdc" | ".search" => {
                return Err(lb.diag_at(0, format!("unsupported BLIF construct `{kw}`")));
            }
            other => {
                // Delay constraints, `.latch_order`, `.code`, and any
                // unknown directives: carried verbatim as metadata.
                let name = other[1..].to_string();
                let args: Vec<String> = (1..lb.len()).map(|i| lb.tok(i).to_string()).collect();
                self.model_mut(line)
                    .commands
                    .push(Command::Directive { name, args, line });
            }
        }
        Ok(())
    }

    /// `.latch input output [type control] [init]` — all four legal
    /// arities (2, 3, 4 and 5 arguments).
    fn parse_latch(&mut self, lb: &LineBuf, line: u32) -> Result<Latch, Diag> {
        let argc = lb.len() - 1;
        if argc < 2 {
            return Err(lb.diag_at(0, ".latch needs input and output"));
        }
        if argc > 5 {
            return Err(lb.diag_at(6, "malformed .latch: too many arguments"));
        }
        let input = self.interner.intern(lb.tok(1));
        let output = self.interner.intern(lb.tok(2));
        let (ty, control, init_idx) = match argc {
            2 => (None, None, None),
            3 => (None, None, Some(3)),
            4 | 5 => {
                let ty = LatchType::from_token(lb.tok(3)).ok_or_else(|| {
                    lb.diag_at(
                        3,
                        format!("bad latch type `{}` (expected fe/re/ah/al/as)", lb.tok(3)),
                    )
                })?;
                let control = self.control_symbol(lb.tok(4));
                (Some(ty), control, (argc == 5).then_some(5))
            }
            _ => unreachable!("arity checked"),
        };
        let init = match init_idx {
            None => None,
            Some(i) => Some(InitVal::from_token(lb.tok(i)).ok_or_else(|| {
                lb.diag_at(i, format!("bad latch init `{}` (expected 0-3)", lb.tok(i)))
            })?),
        };
        Ok(Latch {
            input,
            output,
            ty,
            control,
            init,
            line,
        })
    }

    /// `.mlatch cell pin=sig… [control] [init]`.
    fn parse_mlatch(&mut self, lb: &LineBuf, line: u32) -> Result<Mlatch, Diag> {
        if lb.len() < 2 {
            return Err(lb.diag_at(0, ".mlatch needs a cell name"));
        }
        let cell = self.interner.intern(lb.tok(1));
        let mut end = lb.len();
        let mut init = None;
        let mut control = None;
        // Trailing non-pair tokens are [control] then [init]; detect from
        // the back.
        if end > 2 && !lb.tok(end - 1).contains('=') {
            if let Some(v) = InitVal::from_token(lb.tok(end - 1)) {
                init = Some(v);
                end -= 1;
            }
        }
        if end > 2 && !lb.tok(end - 1).contains('=') {
            control = self.control_symbol(lb.tok(end - 1));
            end -= 1;
        }
        let conns = self.parse_conns(lb, 2, end)?;
        Ok(Mlatch {
            cell,
            conns,
            control,
            init,
            line,
        })
    }

    fn control_symbol(&mut self, tok: &str) -> Option<Symbol> {
        if tok == "NIL" {
            None
        } else {
            Some(self.interner.intern(tok))
        }
    }

    fn parse_conns(
        &mut self,
        lb: &LineBuf,
        from: usize,
        to: usize,
    ) -> Result<Vec<(Symbol, Symbol)>, Diag> {
        let mut conns = Vec::with_capacity(to.saturating_sub(from));
        for i in from..to {
            let tok = lb.tok(i);
            let Some((f, a)) = tok.split_once('=') else {
                return Err(lb.diag_at(i, format!("expected formal=actual, got `{tok}`")));
            };
            if f.is_empty() || a.is_empty() {
                return Err(lb.diag_at(i, format!("expected formal=actual, got `{tok}`")));
            }
            conns.push((self.interner.intern(f), self.interner.intern(a)));
        }
        Ok(conns)
    }

    fn cube_line(&mut self, lb: &LineBuf) -> Result<(), Diag> {
        if !self.names_open {
            return Err(lb.diag_at(0, "cube outside of .names"));
        }
        let model = self.cur.as_mut().expect("names_open implies model");
        let Some(Command::Names(block)) = model.commands.last_mut() else {
            unreachable!("names_open tracks the last command");
        };
        let width = block.num_inputs as usize;
        let (pattern, value) = if width == 0 {
            if lb.len() != 1 || lb.tok(0).len() != 1 {
                return Err(lb.diag_at(0, "constant .names expects `0` or `1`"));
            }
            ("", lb.tok(0).as_bytes()[0])
        } else {
            if lb.len() != 2 {
                return Err(lb.diag_at(0, "cube must be `pattern value`"));
            }
            if lb.tok(0).len() != width {
                return Err(lb.diag_at(
                    0,
                    format!(
                        "cube width {} does not match {width} inputs",
                        lb.tok(0).len()
                    ),
                ));
            }
            if lb.tok(1).len() != 1 {
                return Err(lb.diag_at(1, "cube output must be 0 or 1"));
            }
            (lb.tok(0), lb.tok(1).as_bytes()[0])
        };
        if value != b'0' && value != b'1' {
            return Err(lb.diag_at(lb.len() - 1, "cube output must be 0 or 1"));
        }
        if let Some(off) = pattern
            .bytes()
            .position(|b| !matches!(b, b'0' | b'1' | b'-'))
        {
            let (l, c) = lb.pos(0);
            return Err(lb.diag_at_pos(l, c + off, "cube pattern must use 0/1/-"));
        }
        model.cubes.extend_from_slice(pattern.as_bytes());
        model.cubes.push(value);
        block.num_cubes += 1;
        Ok(())
    }

    fn finish(mut self) -> Result<BlifFile, BlifError> {
        if let Some(block) = &self.kiss {
            return Err(Diag::new(block.line as usize, 1, "unterminated .start_kiss").into());
        }
        self.close_model();
        Ok(BlifFile {
            models: self.models,
            interner: self.interner,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> BlifFile {
        parse_str(text).unwrap()
    }

    fn err(text: &str) -> Diag {
        match parse_str(text).unwrap_err() {
            BlifError::Diag(d) => d,
            other => panic!("expected diag, got {other}"),
        }
    }

    #[test]
    fn single_model_subset() {
        let f =
            parse(".model m\n.inputs a b\n.outputs z\n.names a b z\n11 1\n.latch z s 0\n.end\n");
        assert_eq!(f.models.len(), 1);
        let m = &f.models[0];
        assert_eq!(m.name, "m");
        assert_eq!(m.inputs.len(), 2);
        assert_eq!(m.commands.len(), 2);
        match &m.commands[0] {
            Command::Names(n) => {
                assert_eq!(n.num_cubes(), 1);
                assert_eq!(n.cube(m, 0), (b"11".as_slice(), b'1'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn latch_all_arities() {
        let f = parse(
            ".model m\n.inputs a\n.outputs z\n.names q1 q2 q3 q4 q5 z\n11111 1\n\
             .latch a q1\n.latch a q2 1\n.latch a q3 re clk\n.latch a q4 fe clk 0\n\
             .latch a q5 as NIL 2\n.end\n",
        );
        let latches: Vec<&Latch> = f.models[0]
            .commands
            .iter()
            .filter_map(|c| match c {
                Command::Latch(l) => Some(l),
                _ => None,
            })
            .collect();
        assert_eq!(latches.len(), 5);
        assert_eq!(latches[0].init, None);
        assert_eq!(latches[1].init, Some(InitVal::One));
        assert_eq!(latches[1].ty, None);
        assert_eq!(latches[2].ty, Some(LatchType::Re));
        assert!(latches[2].control.is_some());
        assert_eq!(latches[2].init, None);
        assert_eq!(latches[3].ty, Some(LatchType::Fe));
        assert_eq!(latches[3].init, Some(InitVal::Zero));
        assert_eq!(latches[4].ty, Some(LatchType::As));
        assert!(latches[4].control.is_none());
        assert_eq!(latches[4].init, Some(InitVal::DontCare));
    }

    #[test]
    fn latch_bad_type_and_init_diagnose_column() {
        let d = err(".model m\n.latch a b zz clk 0\n.end\n");
        assert_eq!((d.line, d.col), (2, 12));
        assert!(d.message.contains("bad latch type"), "{}", d.message);
        let d = err(".model m\n.latch a b 7\n.end\n");
        assert_eq!((d.line, d.col), (2, 12));
        assert!(d.message.contains("bad latch init"), "{}", d.message);
        let d = err(".model m\n.latch a b re clk 1 x\n.end\n");
        assert!(d.message.contains("too many"), "{}", d.message);
    }

    #[test]
    fn multi_model_with_subckt_and_yosys_directives() {
        let f = parse(
            ".model top\n.inputs a\n.outputs z\n.attr src \"top.v:1\"\n\
             .subckt leaf x=a y=z\n.end\n\
             .model leaf\n.inputs x\n.outputs y\n.cname buf0\n.names x y\n1 1\n.end\n\
             .model bb\n.inputs p\n.outputs q\n.blackbox\n.end\n",
        );
        assert_eq!(f.models.len(), 3);
        assert!(f.models[2].blackbox);
        let top = &f.models[0];
        let sub = top
            .commands
            .iter()
            .find_map(|c| match c {
                Command::Subckt(s) => Some(s),
                _ => None,
            })
            .unwrap();
        assert_eq!(f.interner.resolve(sub.model), "leaf");
        assert_eq!(sub.conns.len(), 2);
        let counts = f.model_counts();
        assert_eq!(counts[0].subckts, 1);
        assert_eq!(counts[1].gates, 1);
        assert!(counts[2].blackbox);
    }

    #[test]
    fn kiss_block_kept_verbatim() {
        let f = parse(
            ".model fsm\n.inputs i\n.outputs o\n.start_kiss\n.i 1\n.o 1\n.s 2\n.r A\n\
             1 A B 1\n- B A 0\n.end_kiss\n.latch_order s0\n.code A 0\n.end\n",
        );
        let m = &f.models[0];
        let kiss = m
            .commands
            .iter()
            .find_map(|c| match c {
                Command::Kiss(k) => Some(k),
                _ => None,
            })
            .unwrap();
        assert!(kiss.text.starts_with(".i 1\n.o 1\n"));
        assert!(kiss.text.contains("1 A B 1\n"));
        // .latch_order / .code carried as generic directives.
        assert!(m
            .commands
            .iter()
            .any(|c| matches!(c, Command::Directive { name, .. } if name == "latch_order"),));
    }

    #[test]
    fn gate_mlatch_conn_clock() {
        let f = parse(
            ".model g\n.inputs a b c\n.outputs z\n.clock clk\n\
             .gate nand2 a=a b=b o=t\n.mlatch dff d=t q=r NIL 1\n.conn r w\n\
             .names w c z\n11 1\n.end\n",
        );
        let m = &f.models[0];
        assert_eq!(m.clocks.len(), 1);
        assert!(matches!(m.commands[0], Command::Gate(_)));
        match &m.commands[1] {
            Command::Mlatch(ml) => {
                assert!(ml.control.is_none());
                assert_eq!(ml.init, Some(InitVal::One));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(m.commands[2], Command::Conn { .. }));
    }

    #[test]
    fn exdc_rejected_with_position() {
        let d = err(".model m\n.inputs a\n.outputs z\n.names a z\n1 1\n.exdc\n.end\n");
        assert_eq!(d.line, 6);
        assert!(d.message.contains(".exdc"));
    }

    #[test]
    fn bad_cube_char_points_at_offending_column() {
        let d = err(".model m\n.inputs a b\n.outputs z\n.names a b z\n1x 1\n.end\n");
        assert_eq!((d.line, d.col), (5, 2));
        assert!(d.render().contains('^'), "{}", d.render());
    }

    #[test]
    fn delay_directives_preserved() {
        let f = parse(".model m\n.inputs a\n.outputs z\n.delay a 3\n.names a z\n1 1\n.end\n");
        assert!(f.models[0]
            .commands
            .iter()
            .any(|c| matches!(c, Command::Directive { name, args, .. }
                 if name == "delay" && args == &["a", "3"])));
    }
}
