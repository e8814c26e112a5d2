//! Precise parse/link diagnostics: line + column, the offending source
//! line, and a caret rendering.
//!
//! [`Diag`] is the shared error currency of the front-end. It converts
//! into [`netlist::NetlistError::Parse`] (keeping the stable `line` +
//! `message` shape callers of the old parser rely on) while the richer
//! [`Diag::render`] form — source excerpt plus a `^` caret under the
//! offending column — is what the CLI shows users.

use netlist::NetlistError;

/// One diagnostic: where, what, and (when available) the source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// 1-based source line (0 when unknown, e.g. I/O errors).
    pub line: usize,
    /// 1-based column of the offending token (0 when unknown).
    pub col: usize,
    /// What went wrong.
    pub message: String,
    /// The offending physical source line, when the scanner still had it.
    pub source: Option<String>,
}

impl Diag {
    /// A diagnostic with a position but no source excerpt.
    pub fn new(line: usize, col: usize, message: impl Into<String>) -> Diag {
        Diag {
            line,
            col,
            message: message.into(),
            source: None,
        }
    }

    /// Attaches the offending source line (for the caret rendering).
    #[must_use]
    pub fn with_source(mut self, source: impl Into<String>) -> Diag {
        self.source = Some(source.into());
        self
    }

    /// Multi-line rendering with the source excerpt and a caret:
    ///
    /// ```text
    /// line 3, col 8: bad latch init `q`
    ///   .latch a b q
    ///          ^
    /// ```
    pub fn render(&self) -> String {
        let mut out = self.to_string();
        if let Some(src) = &self.source {
            out.push_str("\n  ");
            out.push_str(src.trim_end());
            if self.col > 0 {
                out.push_str("\n  ");
                // Columns count bytes, so the caret pads one space (or
                // tab) per character that starts before the column: it
                // lines up under multibyte names too.
                let pad = src
                    .char_indices()
                    .take_while(|&(at, _)| at + 1 < self.col)
                    .map(|(_, ch)| if ch == '\t' { '\t' } else { ' ' })
                    .collect::<String>();
                out.push_str(&pad);
                out.push('^');
            }
        }
        out
    }
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 && self.col > 0 {
            write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
        } else if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            write!(f, "{}", self.message)
        }
    }
}

impl std::error::Error for Diag {}

impl From<Diag> for NetlistError {
    fn from(d: Diag) -> NetlistError {
        NetlistError::Parse {
            line: d.line,
            message: d.message,
        }
    }
}

/// Front-end errors: a positioned diagnostic, an I/O failure, or a
/// circuit-construction error bubbled up from `netlist`.
#[derive(Debug)]
pub enum BlifError {
    /// Positioned syntax/semantics problem.
    Diag(Diag),
    /// I/O failure while streaming the input.
    Io(std::io::Error),
    /// Circuit construction rejected the flattened netlist.
    Build(NetlistError),
}

impl BlifError {
    /// Caret-rendered form (falls back to `Display` for non-diagnostics).
    pub fn render(&self) -> String {
        match self {
            BlifError::Diag(d) => d.render(),
            other => other.to_string(),
        }
    }
}

impl std::fmt::Display for BlifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlifError::Diag(d) => write!(f, "{d}"),
            BlifError::Io(e) => write!(f, "I/O error: {e}"),
            BlifError::Build(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BlifError {}

impl From<Diag> for BlifError {
    fn from(d: Diag) -> BlifError {
        BlifError::Diag(d)
    }
}

impl From<std::io::Error> for BlifError {
    fn from(e: std::io::Error) -> BlifError {
        BlifError::Io(e)
    }
}

impl From<NetlistError> for BlifError {
    fn from(e: NetlistError) -> BlifError {
        BlifError::Build(e)
    }
}

impl From<BlifError> for NetlistError {
    fn from(e: BlifError) -> NetlistError {
        match e {
            BlifError::Diag(d) => d.into(),
            BlifError::Io(io) => NetlistError::Parse {
                line: 0,
                message: format!("I/O error: {io}"),
            },
            BlifError::Build(n) => n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_places_caret() {
        let d = Diag::new(3, 8, "bad latch init `q`").with_source(".latch a b q");
        let r = d.render();
        assert!(r.contains("line 3, col 8"));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[1], "  .latch a b q");
        assert_eq!(lines[2], "         ^");
    }

    #[test]
    fn converts_to_stable_netlist_parse() {
        let d = Diag::new(7, 2, "boom");
        let n: NetlistError = d.into();
        match n {
            NetlistError::Parse { line, message } => {
                assert_eq!(line, 7);
                assert_eq!(message, "boom");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
