//! Inline waivers and the checked-in baseline.
//!
//! Two suppression mechanisms, both requiring a stated reason:
//!
//! * **Inline waiver** — a comment of the form
//!   `// lint: allow(D3) -- <reason>` (several rules:
//!   `allow(D1, D3)`). It suppresses matching findings on the
//!   comment's own line and on the line directly below it, so both
//!   styles work:
//!
//!   ```text
//!   let e = rob.get(p, t).expect("x"); // lint: allow(D3) -- reason
//!   // lint: allow(D3) -- reason
//!   let e = rob.get(p, t).expect("x");
//!   ```
//!
//!   A waiver without the ` -- reason` part is ignored: undocumented
//!   suppressions are exactly what the linter exists to prevent.
//!
//! * **Baseline file** — one fingerprint per line
//!   (`<rule> <path> <symbol>`, `#` comments allowed), for grandfathered
//!   findings that predate a rule. Fingerprints deliberately omit line
//!   numbers so unrelated edits don't invalidate them.

use crate::findings::Rule;
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// Inline waivers of one file: (line, rule) pairs that are suppressed.
#[derive(Debug, Default)]
pub struct Waivers {
    covered: BTreeSet<(u32, Rule)>,
}

impl Waivers {
    /// Collect waivers from a file's comment tokens.
    pub fn collect(toks: &[Tok<'_>]) -> Waivers {
        let mut w = Waivers::default();
        for t in toks {
            if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                continue;
            }
            for rule in parse_waiver_comment(t.text) {
                w.covered.insert((t.line, rule));
                w.covered.insert((t.line + 1, rule));
            }
        }
        w
    }

    /// Is `rule` waived on `line`?
    pub fn allows(&self, line: u32, rule: Rule) -> bool {
        self.covered.contains(&(line, rule))
    }
}

/// Parse one comment's text; returns the waived rules (empty when the
/// comment is not a well-formed waiver).
fn parse_waiver_comment(text: &str) -> Vec<Rule> {
    let Some(at) = text.find("lint: allow(") else {
        return Vec::new();
    };
    let rest = &text[at + "lint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Vec::new();
    };
    // Reason is mandatory: ` -- ` followed by at least one word.
    let after = &rest[close + 1..];
    let Some(dash) = after.find("--") else {
        return Vec::new();
    };
    if after[dash + 2..].trim().is_empty() {
        return Vec::new();
    }
    rest[..close]
        .split(',')
        .filter_map(|s| Rule::parse(s.trim()))
        .collect()
}

/// The parsed baseline file: a set of finding fingerprints.
#[derive(Debug, Default, Clone)]
pub struct Baseline {
    entries: BTreeSet<String>,
}

impl Baseline {
    /// Parse baseline text (`<rule> <path> <symbol>` lines; `#`
    /// comments and blank lines ignored).
    pub fn parse(text: &str) -> Baseline {
        let mut entries = BTreeSet::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Normalise interior whitespace to single spaces so the
            // file can be column-aligned by hand.
            let fp: Vec<&str> = line.split_whitespace().collect();
            if fp.len() == 3 && Rule::parse(fp[0]).is_some() {
                entries.insert(fp.join(" "));
            }
        }
        Baseline { entries }
    }

    /// Does the baseline contain this fingerprint?
    pub fn contains(&self, fingerprint: &str) -> bool {
        self.entries.contains(fingerprint)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn waiver_covers_own_and_next_line() {
        let src = "// lint: allow(D3) -- invariant documented\nfoo.unwrap();\nbar.unwrap();\n";
        let w = Waivers::collect(&lex(src));
        assert!(w.allows(1, Rule::D3));
        assert!(w.allows(2, Rule::D3));
        assert!(!w.allows(3, Rule::D3));
        assert!(!w.allows(2, Rule::D1));
    }

    #[test]
    fn waiver_requires_reason() {
        let w = Waivers::collect(&lex("// lint: allow(D3)\nfoo.unwrap();\n"));
        assert!(!w.allows(2, Rule::D3));
        let w = Waivers::collect(&lex("// lint: allow(D3) -- \nfoo.unwrap();\n"));
        assert!(!w.allows(2, Rule::D3));
    }

    #[test]
    fn waiver_accepts_multiple_rules() {
        let w = Waivers::collect(&lex("x(); // lint: allow(D1, D2) -- test scaffolding\n"));
        assert!(w.allows(1, Rule::D1));
        assert!(w.allows(1, Rule::D2));
        assert!(!w.allows(1, Rule::D3));
    }

    #[test]
    fn baseline_parses_and_matches() {
        let b = Baseline::parse(
            "# grandfathered\nD1 crates/x/src/a.rs HashMap\n\nD3  crates/y/src/b.rs   unwrap\nnot a line\n",
        );
        assert!(b.contains("D1 crates/x/src/a.rs HashMap"));
        assert!(b.contains("D3 crates/y/src/b.rs unwrap"));
        assert!(!b.contains("D2 crates/x/src/a.rs SystemTime"));
    }
}
