//! Panic-reachability pass.
//!
//! Computes the *panic surface* of the workspace — every site that can
//! abort a release run — and enforces two tiers of policy:
//!
//! 1. **Zero-budget functions** (`deny-panic` manifest entries, the sim
//!    engine scheduling loop and the kernel transition driver): any
//!    direct panic site in their bodies is a finding. These are meant to
//!    be burned down to zero and *stay* zero; the baseline makes any
//!    regression a CI failure.
//! 2. **Reachable surface**: for every zero-budget root, each function
//!    reachable through the call graph that still contains panic sites
//!    is reported once, naming the categories. This is the honest
//!    transitive answer — it shrinks as callees are made total.
//!
//! Site categories: slice/array indexing (`x[i]`), `.unwrap()` /
//! `.expect(…)`, aborting macros (`panic!`, `unreachable!`, `todo!`,
//! `unimplemented!`, `assert*!` — `debug_assert*!` is compiled out of
//! release and exempt), and literal counter bumps (`n += 1` on integer
//! counters, which overflow-panic in debug builds; flagged only in
//! zero-budget functions, where `saturating_add` is the total spelling).
//! Functions gated to debug builds (`#[cfg(debug_assertions)]`) are exempt
//! throughout: their asserts are the sanitizer, not the result path.

use crate::items::ItemGraph;
use crate::lexer::{Token, TokenKind};
use crate::manifest::Manifest;
use crate::report::Finding;
use crate::Workspace;

/// One direct panic site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// Category: `index`, `unwrap`, `expect`, `panic-macro`, `assert`,
    /// or `counter-bump`.
    pub category: &'static str,
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const ASSERT_MACROS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];
/// `ident [` sequences where the ident is a keyword are slice patterns
/// or expression syntax, not indexing.
const NON_INDEX_KEYWORDS: [&str; 8] = ["let", "mut", "ref", "in", "box", "return", "else", "match"];

/// Scans a body token range for direct panic sites.
#[must_use]
pub fn panic_sites(src: &str, tokens: &[Token], range: (usize, usize)) -> Vec<PanicSite> {
    let sig: Vec<&Token> = tokens[range.0..range.1.min(tokens.len())]
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment | TokenKind::DocComment))
        .collect();
    let text = |k: usize| -> &str { sig[k].text(src) };
    let mut out = Vec::new();
    for i in 0..sig.len() {
        match sig[i].kind {
            TokenKind::Punct if text(i) == "[" && i > 0 => {
                let prev = sig[i - 1];
                let prev_text = prev.text(src);
                let indexable = matches!(prev.kind, TokenKind::Ident if !NON_INDEX_KEYWORDS.contains(&prev_text))
                    || prev_text == ")"
                    || prev_text == "]";
                // `name![…]` is a macro invocation, `#[…]` an attribute.
                let macro_or_attr = prev_text == "!" || prev_text == "#";
                if indexable && !macro_or_attr {
                    out.push(PanicSite {
                        line: sig[i].line,
                        category: "index",
                    });
                }
            }
            TokenKind::Punct if text(i) == "." => {
                if let (Some(name), Some(paren)) = (sig.get(i + 1), sig.get(i + 2)) {
                    if paren.text(src) == "(" {
                        match name.text(src) {
                            "unwrap" => out.push(PanicSite {
                                line: name.line,
                                category: "unwrap",
                            }),
                            "expect" => out.push(PanicSite {
                                line: name.line,
                                category: "expect",
                            }),
                            _ => {}
                        }
                    }
                }
            }
            TokenKind::Ident if sig.get(i + 1).is_some_and(|t| t.text(src) == "!") => {
                let name = text(i);
                // A `!` can also be unary negation on the *next* token;
                // macro bangs are followed by an opening delimiter.
                let delim = sig.get(i + 2).map(|t| t.text(src));
                if !matches!(delim, Some("(" | "[" | "{")) {
                    continue;
                }
                if PANIC_MACROS.contains(&name) {
                    out.push(PanicSite {
                        line: sig[i].line,
                        category: "panic-macro",
                    });
                } else if ASSERT_MACROS.contains(&name) {
                    out.push(PanicSite {
                        line: sig[i].line,
                        category: "assert",
                    });
                }
            }
            // `counter += 1` / `counter -= 1`: debug-build overflow sites.
            TokenKind::Punct
                if (text(i) == "+" || text(i) == "-")
                    && i + 2 < sig.len()
                    && text(i + 1) == "="
                    && sig[i + 2].kind == TokenKind::NumLit
                    && text(i + 2) == "1" =>
            {
                out.push(PanicSite {
                    line: sig[i].line,
                    category: "counter-bump",
                });
            }
            _ => {}
        }
    }
    out
}

/// Runs the pass over the whole workspace.
#[must_use]
pub fn run(ws: &Workspace, graph: &ItemGraph, manifest: &Manifest) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Direct sites per function, computed once.
    let sites: Vec<Vec<PanicSite>> = graph
        .fns
        .iter()
        .map(|f| {
            if f.is_test || f.debug_only {
                return Vec::new();
            }
            let file = &ws.files[f.file];
            f.body
                .map(|r| panic_sites(&file.text, &ws.tokens[f.file], r))
                .unwrap_or_default()
        })
        .collect();

    let roots: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.is_test && manifest.is_deny_panic(&f.qual))
        .map(|(i, _)| i)
        .collect();

    // Tier 1: zero budget in the roots themselves.
    for &r in &roots {
        let f = &graph.fns[r];
        for s in &sites[r] {
            findings.push(Finding {
                pass: "panic",
                path: ws.files[f.file].path.clone(),
                line: s.line,
                symbol: f.qual.clone(),
                detail: format!(
                    "panic site ({}) in zero-panic-budget function; replace with a total \
                     alternative (get/get_mut, saturating ops, early return)",
                    s.category
                ),
            });
        }
    }

    // Tier 2: the reachable panic surface of each root. One finding per
    // panicky reachable function, naming every root that reaches it.
    use std::collections::BTreeMap;
    // Counter bumps only abort debug builds and are only held against the
    // roots themselves; the transitive surface counts true abort sites.
    let hard = |g: usize| -> Vec<&PanicSite> {
        sites[g]
            .iter()
            .filter(|s| s.category != "counter-bump")
            .collect()
    };
    let mut reached_by: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
    for &r in &roots {
        for g in graph.reachable_from(r) {
            if g != r && !hard(g).is_empty() {
                reached_by.entry(g).or_default().push(&graph.fns[r].name);
            }
        }
    }
    for (g, mut via) in reached_by {
        via.sort_unstable();
        via.dedup();
        let f = &graph.fns[g];
        let hard_sites = hard(g);
        let mut cats: Vec<&str> = hard_sites.iter().map(|s| s.category).collect();
        cats.sort_unstable();
        cats.dedup();
        findings.push(Finding {
            pass: "panic",
            path: ws.files[f.file].path.clone(),
            line: f.line,
            symbol: f.qual.clone(),
            detail: format!(
                "on the panic surface of {} ({} site(s): {})",
                via.join(", "),
                hard_sites.len(),
                cats.join(", ")
            ),
        });
    }
    findings
}
