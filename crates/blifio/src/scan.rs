//! Streaming logical-line scanner.
//!
//! Reads the input through a fixed-size chunk buffer (never the whole
//! file) and works on slices of it: each physical line is split on
//! spaces, tabs and `\r` in one pass over the chunk, and each run of
//! token bytes is copied into the line buffer with one
//! `extend_from_slice`. `#` comments are skipped with one search for
//! the newline and never buffered, and `\`-newline continuations, which
//! may fall anywhere, including across chunk boundaries, fold physical
//! lines into one *logical line*, yielded as a reused token buffer.
//!
//! Every token remembers its original (line, column), so diagnostics
//! stay precise through continuations. Columns count bytes; a `\r`
//! counts for nothing and separates nothing, wherever it stands. The
//! physical source lines feeding the current logical line are retained
//! (bounded) for caret rendering. Tokens are byte ranges copied
//! verbatim and checked as UTF-8 once per logical line: invalid UTF-8
//! is a positioned [`Diag`](crate::Diag), never a panic.

use crate::diag::BlifError;
use std::borrow::Cow;
use std::io::Read;

/// Default chunk size for streaming reads.
pub const DEFAULT_CHUNK: usize = 64 * 1024;

/// Cap on the retained text of one physical line (diagnostics only).
const SRC_LINE_CAP: usize = 240;

/// Cap on retained physical lines per logical line (diagnostics only).
const SRC_LINES_CAP: usize = 8;

/// Byte classes of the scanner: anything else is part of a token.
const TOKEN: u8 = 0;
const BLANK: u8 = 1;
const CR: u8 = 2;
const NL: u8 = 3;
const HASH: u8 = 4;
const BACKSLASH: u8 = 5;

static CLASS: [u8; 256] = {
    let mut t = [TOKEN; 256];
    t[b' ' as usize] = BLANK;
    t[b'\t' as usize] = BLANK;
    t[b'\r' as usize] = CR;
    t[b'\n' as usize] = NL;
    t[b'#' as usize] = HASH;
    t[b'\\' as usize] = BACKSLASH;
    t
};

/// One token's position inside a [`LineBuf`].
#[derive(Debug, Clone, Copy)]
pub struct TokSpan {
    start: u32,
    len: u32,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// A reusable logical-line buffer: token text plus per-token positions.
#[derive(Debug, Default)]
pub struct LineBuf {
    text: String,
    toks: Vec<TokSpan>,
    /// Retained physical source lines, back to back, without their
    /// `\r`s; the last one may still be growing.
    src: Vec<u8>,
    /// Line number and end offset in `src` of each retained line.
    src_lines: Vec<(u32, u32)>,
}

impl LineBuf {
    fn clear(&mut self) {
        self.text.clear();
        self.toks.clear();
        self.src.clear();
        self.src_lines.clear();
    }

    /// Number of tokens on the logical line.
    pub fn len(&self) -> usize {
        self.toks.len()
    }

    /// True when the line has no tokens.
    pub fn is_empty(&self) -> bool {
        self.toks.is_empty()
    }

    /// Text of token `i`.
    pub fn tok(&self, i: usize) -> &str {
        let t = self.toks[i];
        &self.text[t.start as usize..(t.start + t.len) as usize]
    }

    /// (line, col) of token `i`.
    pub fn pos(&self, i: usize) -> (usize, usize) {
        let t = self.toks[i];
        (t.line as usize, t.col as usize)
    }

    /// Source line of the first token (the logical line's anchor).
    pub fn line(&self) -> usize {
        self.toks.first().map_or(0, |t| t.line as usize)
    }

    /// The retained physical source line numbered `line`, if any. Bytes
    /// that are not UTF-8 read as U+FFFD.
    pub fn source_line(&self, line: usize) -> Option<Cow<'_, str>> {
        let mut start = 0;
        for &(n, end) in &self.src_lines {
            let bytes = &self.src[start..end as usize];
            if n as usize == line {
                return Some(match std::str::from_utf8(bytes) {
                    Ok(s) => Cow::Borrowed(s),
                    // The cap cut a character in two: keep the whole ones.
                    Err(e) if e.error_len().is_none() => {
                        String::from_utf8_lossy(&bytes[..e.valid_up_to()])
                    }
                    Err(_) => String::from_utf8_lossy(bytes),
                });
            }
            start = end as usize;
        }
        None
    }

    /// A positioned diagnostic anchored at token `i`, with the source
    /// excerpt attached when retained.
    pub fn diag_at(&self, i: usize, message: impl Into<String>) -> crate::Diag {
        let (line, col) = if i < self.toks.len() {
            self.pos(i)
        } else {
            (self.line(), 0)
        };
        self.diag_at_pos(line, col, message)
    }

    /// A diagnostic at (`line`, `col`), with the source excerpt attached
    /// when retained.
    pub fn diag_at_pos(&self, line: usize, col: usize, message: impl Into<String>) -> crate::Diag {
        let d = crate::Diag::new(line, col, message);
        match self.source_line(line) {
            Some(src) => d.with_source(src),
            None => d,
        }
    }

    /// Joins the tokens with single spaces (used to hand embedded KISS
    /// lines to the KISS parser).
    pub fn joined(&self) -> String {
        let mut out = String::new();
        for i in 0..self.len() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.tok(i));
        }
        out
    }

    /// Moves the scanned token bytes into `text` once they are checked
    /// as UTF-8.
    fn set_text(&mut self, bytes: Vec<u8>) -> Result<(), crate::Diag> {
        // A token must also start on a character boundary: two tokens
        // may hold the halves of one character between them.
        let bytes = match String::from_utf8(bytes) {
            Ok(s)
                if self
                    .toks
                    .iter()
                    .all(|t| s.is_char_boundary(t.start as usize)) =>
            {
                self.text = s;
                return Ok(());
            }
            Ok(s) => s.into_bytes(),
            Err(e) => e.into_bytes(),
        };
        let (t, at) = self
            .toks
            .iter()
            .find_map(|t| {
                let (start, end) = (t.start as usize, (t.start + t.len) as usize);
                let e = std::str::from_utf8(&bytes[start..end]).err()?;
                Some((t, start + e.valid_up_to()))
            })
            .expect("a line of valid tokens is valid");
        let col = t.col as usize + (at - t.start as usize);
        Err(self.diag_at_pos(
            t.line as usize,
            col,
            format!("invalid UTF-8 (byte 0x{:02x})", bytes[at]),
        ))
    }
}

/// How a physical line's bytes in the current chunk end.
enum SegEnd {
    /// The chunk ended inside the line.
    Open,
    /// The chunk ended on a `\` (`1`) or on `\` + `\r` (`2`): the next
    /// chunk says whether it continues the line.
    Pending(u8),
    /// A newline follows.
    Newline,
    /// A `\` (and maybe one `\r`) stands right before the newline: the
    /// logical line goes on.
    Continuation,
}

/// Streaming scanner over any `Read`.
pub struct Scanner<R: Read> {
    src: R,
    chunk: Vec<u8>,
    pos: usize,
    len: usize,
    eof: bool,
    /// 1-based current line/column.
    line: u32,
    col: u32,
    /// Bytes of the current physical line kept in the line buffer's
    /// `src` (capped, for diagnostics).
    kept: usize,
}

impl<R: Read> Scanner<R> {
    /// A scanner with the default chunk size.
    pub fn new(src: R) -> Scanner<R> {
        Scanner::with_chunk(src, DEFAULT_CHUNK)
    }

    /// A scanner with an explicit chunk size (tests use tiny chunks to
    /// exercise tokens and continuations spanning buffer boundaries).
    pub fn with_chunk(src: R, chunk: usize) -> Scanner<R> {
        Scanner {
            src,
            chunk: vec![0; chunk.max(1)],
            pos: 0,
            len: 0,
            eof: false,
            line: 1,
            col: 1,
            kept: 0,
        }
    }

    /// Refills an exhausted chunk; leaves it empty at end of input.
    fn fill(&mut self) -> std::io::Result<()> {
        if self.pos < self.len || self.eof {
            return Ok(());
        }
        let n = self.src.read(&mut self.chunk)?;
        self.pos = 0;
        self.len = n;
        if n == 0 {
            self.eof = true;
        }
        Ok(())
    }

    /// Scans the next non-empty logical line into `out` (reusing its
    /// buffers). Returns `false` at end of input.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying reader, and returns a
    /// positioned diagnostic for a token that is not valid UTF-8 or a
    /// logical line whose tokens pass 4 GiB.
    pub fn next_line(&mut self, out: &mut LineBuf) -> Result<bool, BlifError> {
        out.clear();
        let mut text = std::mem::take(&mut out.text).into_bytes();
        let more = self.scan_line(out, &mut text)?;
        if u32::try_from(text.len()).is_err() {
            return Err(out
                .diag_at(0, "logical line holds more than 4 GiB of names")
                .into());
        }
        out.set_text(text)?;
        Ok(more)
    }

    fn scan_line(&mut self, out: &mut LineBuf, text: &mut Vec<u8>) -> std::io::Result<bool> {
        let mut open = false;
        let mut in_comment = false;
        let mut pending = 0u8;
        loop {
            self.fill()?;
            if self.pos == self.len {
                // End of input: a pending `\` continues into nothing;
                // flush whatever is pending.
                if out.is_empty() {
                    return Ok(false);
                }
                self.end_physical_line(out, true);
                return Ok(true);
            }
            if pending != 0 {
                match self.chunk[self.pos] {
                    b'\n' => {
                        self.pos += 1;
                        self.end_physical_line(out, !out.is_empty());
                        open = false;
                        pending = 0;
                    }
                    b'\r' if pending == 1 => {
                        self.pos += 1;
                        pending = 2;
                    }
                    _ => {
                        // Literal backslash inside a name.
                        let mut cur = Cursor {
                            out: &mut *out,
                            text: &mut *text,
                            open: &mut open,
                            line: self.line,
                            col: &mut self.col,
                        };
                        cur.push(b"\\");
                        pending = 0;
                    }
                }
                continue;
            }
            let avail = &self.chunk[self.pos..self.len];
            let (n, end) = if in_comment {
                skip_comment(avail)
            } else {
                let mut cur = Cursor {
                    out: &mut *out,
                    text: &mut *text,
                    open: &mut open,
                    line: self.line,
                    col: &mut self.col,
                };
                cur.tokenize(avail, &mut in_comment)
            };
            self.kept += keep_source(&mut out.src, &avail[..n], SRC_LINE_CAP - self.kept);
            self.pos += n;
            match end {
                SegEnd::Open => {}
                SegEnd::Pending(p) => pending = p,
                SegEnd::Continuation => {
                    // The newline is swallowed; the logical line goes on.
                    self.pos += 1;
                    self.end_physical_line(out, !out.is_empty());
                    open = false;
                }
                SegEnd::Newline => {
                    self.pos += 1;
                    let had_content = !out.is_empty();
                    self.end_physical_line(out, had_content);
                    if had_content {
                        return Ok(true);
                    }
                    in_comment = false;
                    open = false;
                }
            }
        }
    }

    /// Ends the current physical line: keeps its text for diagnostics
    /// (when the logical line in progress has content) or drops it, and
    /// advances the position counters.
    fn end_physical_line(&mut self, out: &mut LineBuf, record: bool) {
        if record && out.src_lines.len() < SRC_LINES_CAP {
            out.src_lines.push((self.line, out.src.len() as u32));
        } else {
            out.src.truncate(out.src.len() - self.kept);
        }
        self.kept = 0;
        self.line = self.line.saturating_add(1);
        self.col = 1;
    }
}

/// Appends `seg` without its `\r`s to `src`, up to `room` bytes;
/// returns how many it appended.
fn keep_source(src: &mut Vec<u8>, seg: &[u8], room: usize) -> usize {
    let mut kept = 0;
    for part in seg.split(|&b| b == b'\r') {
        let n = part.len().min(room - kept);
        src.extend_from_slice(&part[..n]);
        kept += n;
        if kept == room {
            break;
        }
    }
    kept
}

/// The rest of a comment in the chunk: the bytes up to the newline.
fn skip_comment(avail: &[u8]) -> (usize, SegEnd) {
    match avail.iter().position(|&b| b == b'\n') {
        Some(n) => (n, SegEnd::Newline),
        None => (avail.len(), SegEnd::Open),
    }
}

/// Where tokens of the current physical line go.
struct Cursor<'a> {
    out: &'a mut LineBuf,
    text: &'a mut Vec<u8>,
    open: &'a mut bool,
    line: u32,
    col: &'a mut u32,
}

impl Cursor<'_> {
    /// Splits the current physical line's bytes at the start of `avail`
    /// into tokens. Returns how many bytes precede the newline (or the
    /// chunk's end) and how the line's bytes end there.
    fn tokenize(&mut self, avail: &[u8], in_comment: &mut bool) -> (usize, SegEnd) {
        let mut i = 0;
        while i < avail.len() {
            match CLASS[avail[i] as usize] {
                BLANK => {
                    *self.open = false;
                    *self.col = self.col.saturating_add(1);
                    i += 1;
                }
                CR => i += 1,
                NL => return (i, SegEnd::Newline),
                HASH => {
                    // The rest of the physical line is a comment.
                    *in_comment = true;
                    *self.open = false;
                    let (n, end) = skip_comment(&avail[i..]);
                    return (i + n, end);
                }
                BACKSLASH => match avail[i + 1..] {
                    // `\` right before the newline (a `\r` between them
                    // is tolerated) continues the logical line.
                    [b'\n', ..] => return (i + 1, SegEnd::Continuation),
                    [b'\r', b'\n', ..] => return (i + 2, SegEnd::Continuation),
                    [] => return (i + 1, SegEnd::Pending(1)),
                    [b'\r'] => return (i + 2, SegEnd::Pending(2)),
                    _ => {
                        self.push(b"\\");
                        i += 1;
                    }
                },
                _ => {
                    let start = i;
                    i += 1;
                    while i < avail.len() && CLASS[avail[i] as usize] == TOKEN {
                        i += 1;
                    }
                    self.push(&avail[start..i]);
                }
            }
        }
        (i, SegEnd::Open)
    }

    /// Appends `bytes` to the open token, or opens one here. Offsets
    /// wrap past 4 GiB of text, which `next_line` then rejects; the
    /// column saturates.
    fn push(&mut self, bytes: &[u8]) {
        let len = bytes.len() as u32;
        if *self.open {
            let tok = self.out.toks.last_mut().expect("token open");
            tok.len = tok.len.wrapping_add(len);
        } else {
            self.out.toks.push(TokSpan {
                start: self.text.len() as u32,
                len,
                line: self.line,
                col: *self.col,
            });
            *self.open = true;
        }
        self.text.extend_from_slice(bytes);
        *self.col = self.col.saturating_add(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(text: &str, chunk: usize) -> Vec<Vec<(String, usize, usize)>> {
        let mut sc = Scanner::with_chunk(text.as_bytes(), chunk);
        let mut lb = LineBuf::default();
        let mut all = Vec::new();
        while sc.next_line(&mut lb).unwrap() {
            let mut row = Vec::new();
            for i in 0..lb.len() {
                let (l, c) = lb.pos(i);
                row.push((lb.tok(i).to_string(), l, c));
            }
            all.push(row);
        }
        all
    }

    #[test]
    fn tokens_and_positions() {
        let got = lines(".model top\n.inputs a bb\n", 4096);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0][0], (".model".into(), 1, 1));
        assert_eq!(got[0][1], ("top".into(), 1, 8));
        assert_eq!(got[1][2], ("bb".into(), 2, 11));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let got = lines("# header\n\n.model m # trailing\n", 4096);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].len(), 2);
    }

    #[test]
    fn continuation_joins_lines() {
        let got = lines(".inputs a \\\nb c\n.outputs z\n", 4096);
        assert_eq!(got.len(), 2);
        let toks: Vec<&str> = got[0].iter().map(|(t, _, _)| t.as_str()).collect();
        assert_eq!(toks, [".inputs", "a", "b", "c"]);
        // `b` keeps its real position on line 2.
        assert_eq!(got[0][2].1, 2);
        assert_eq!(got[0][2].2, 1);
    }

    #[test]
    fn continuation_spans_chunk_boundaries() {
        // Exercise every chunk size down to one byte: the continuation
        // backslash+newline and multi-byte tokens straddle boundaries.
        let text = ".names alpha \\\r\nbeta gamma\n# c\n.latch p q 0\n";
        let want = lines(text, 4096);
        for chunk in 1..16 {
            assert_eq!(lines(text, chunk), want, "chunk={chunk}");
        }
    }

    #[test]
    fn backslash_inside_name_is_literal() {
        let got = lines(".names a\\b z\n", 4096);
        assert_eq!(got[0][1].0, "a\\b");
        // Before a `\r` that is not the line's last byte, too.
        for chunk in 1..12 {
            let got = lines(".names a\\\rb z\\\r\r\nc\n", chunk);
            assert_eq!(got[0][1], ("a\\b".into(), 1, 8), "chunk={chunk}");
            assert_eq!(got[0][2], ("z\\".into(), 1, 12), "chunk={chunk}");
            assert_eq!(got[1][0], ("c".into(), 2, 1), "chunk={chunk}");
        }
    }

    #[test]
    fn carriage_returns_neither_count_nor_split() {
        for chunk in [1, 2, 3, 4096] {
            let got = lines(".inputs a\rb c\r\n", chunk);
            assert_eq!(got[0][1], ("ab".into(), 1, 9), "chunk={chunk}");
            assert_eq!(got[0][2], ("c".into(), 1, 12), "chunk={chunk}");
        }
    }

    #[test]
    fn eof_without_newline_flushes() {
        let got = lines(".end", 3);
        assert_eq!(got[0][0].0, ".end");
        // A trailing `\` continues into nothing.
        assert_eq!(lines(".end a\\", 4096), lines(".end a", 4096));
    }

    #[test]
    fn diag_carries_source_excerpt() {
        let mut sc = Scanner::new(".model m\n.latch a b zz\n".as_bytes());
        let mut lb = LineBuf::default();
        sc.next_line(&mut lb).unwrap();
        sc.next_line(&mut lb).unwrap();
        let d = lb.diag_at(3, "bad latch init `zz`");
        let r = d.render();
        assert!(r.contains("line 2, col 12"), "{r}");
        assert!(r.contains(".latch a b zz"), "{r}");
        assert!(r.lines().last().unwrap().trim_end().ends_with('^'), "{r}");
    }

    #[test]
    fn multibyte_names_are_copied_verbatim() {
        let got = lines(".inputs café x€ y\n", 2);
        assert_eq!(got[0][1], ("café".into(), 1, 9));
        assert_eq!(got[0][2], ("x€".into(), 1, 15));
        assert_eq!(got[0][3], ("y".into(), 1, 20));
    }

    #[test]
    fn invalid_utf8_is_a_positioned_diagnostic() {
        let src: &[u8] = b".model m\n.inputs ab\xffc\n";
        for chunk in [1, 5, 4096] {
            let mut sc = Scanner::with_chunk(src, chunk);
            let mut lb = LineBuf::default();
            assert!(sc.next_line(&mut lb).unwrap());
            let Err(BlifError::Diag(d)) = sc.next_line(&mut lb) else {
                panic!("expected a diagnostic");
            };
            assert_eq!((d.line, d.col), (2, 11), "chunk={chunk}");
            assert!(d.message.contains("0xff"), "{}", d.message);
            assert!(d.render().ends_with("          ^"), "{}", d.render());
        }
        // Two tokens holding the halves of one character.
        let mut sc = Scanner::new(&b".inputs x\xe2\x82 \xac\n"[..]);
        let Err(BlifError::Diag(d)) = sc.next_line(&mut LineBuf::default()) else {
            panic!("expected a diagnostic");
        };
        assert_eq!((d.line, d.col), (1, 10));
    }
}
