//! Item extraction and the workspace call graph.
//!
//! A linear scan over each file's token stream recovers the item
//! structure the passes need: every `fn` with its qualified name
//! (`<path>::<mod…>::<ImplType>::<name>`), body token range, attributes,
//! and test-ness (`#[test]` or any enclosing `#[cfg(test)]` scope), plus
//! every call site inside each body. Call sites are then resolved to
//! workspace functions name-wise, preferring same-crate candidates and
//! accepting a cross-crate match only when it is unambiguous — a
//! deliberate over/under-approximation balance: reachability and taint
//! stay useful without every `.len()` edge exploding the graph. A method
//! call also resolves only to functions taking as many arguments besides
//! `self`: Rust has no overloading, so where the counts are right that
//! drops no real edge (see [`list_items`] for what they see).

use crate::lexer::{Token, TokenKind};

/// A call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 1-based line of the callee name.
    pub line: u32,
    /// Bare callee name (`run`, `now`, `lock`).
    pub name: String,
    /// Path segment immediately before `::`, when the call is qualified
    /// (`Instant::now` → `Instant`).
    pub qualifier: Option<String>,
    /// Whether the call is a method call (`recv.name(…)`).
    pub is_method: bool,
    /// How many arguments the call passes, the receiver of a method call
    /// not counted.
    pub args: usize,
}

/// One function item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Index into [`crate::Workspace::files`].
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Qualified name: `<relpath>::<mods…>::<ImplType>::<name>`.
    pub qual: String,
    /// The `impl` type the function sits in, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body (braces included), if it has one.
    pub body: Option<(usize, usize)>,
    /// How many parameters it takes besides a `self` receiver.
    pub arity: usize,
    /// `#[test]` or inside a `#[cfg(test)]` scope.
    pub is_test: bool,
    /// Gated to debug/audit builds via `#[cfg(debug_assertions)]`-style
    /// attributes: its panic sites never ship in release result paths.
    pub debug_only: bool,
    /// Call sites inside the body, in source order.
    pub calls: Vec<CallSite>,
}

/// All functions in a workspace plus the resolved call graph.
#[derive(Debug, Default)]
pub struct ItemGraph {
    /// Every extracted function, in file-then-source order.
    pub fns: Vec<FnInfo>,
    /// `callees[f]` — indices of functions `f` may call.
    pub callees: Vec<Vec<usize>>,
    /// `callers[f]` — inverse edges.
    pub callers: Vec<Vec<usize>>,
    /// Total resolved call edges.
    pub edges: usize,
}

impl ItemGraph {
    /// Functions transitively reachable from `root` (exclusive of
    /// `root` itself unless it is self-recursive).
    #[must_use]
    pub fn reachable_from(&self, root: usize) -> Vec<usize> {
        let mut seen = vec![false; self.fns.len()];
        let mut stack: Vec<usize> = self.callees.get(root).cloned().unwrap_or_default();
        let mut out = Vec::new();
        while let Some(f) = stack.pop() {
            if std::mem::replace(&mut seen[f], true) {
                continue;
            }
            out.push(f);
            if let Some(next) = self.callees.get(f) {
                stack.extend(next.iter().copied());
            }
        }
        out.sort_unstable();
        out
    }
}

/// Keywords that read like `ident (` but are not calls.
const NON_CALL_KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "as",
];

/// Whether `name` is a keyword that can precede `(` without being a call.
#[must_use]
pub fn is_non_call_keyword(name: &str) -> bool {
    NON_CALL_KEYWORDS.contains(&name)
}

/// The crate-ish component of a workspace-relative path:
/// `crates/sim/src/engine.rs` → `sim`; `src/lib.rs` → `(root)`.
#[must_use]
pub fn crate_of(path: &str) -> &str {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name,
        _ => "(root)",
    }
}

/// Extracts all functions (with bodies and call sites) from one file's
/// token stream. `file` is the index recorded into each [`FnInfo`].
#[must_use]
pub fn extract_fns(file: usize, path: &str, src: &str, tokens: &[Token]) -> Vec<FnInfo> {
    // Significant tokens only; comments carry no structure.
    let sig: Vec<(usize, Token)> = tokens
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment | TokenKind::DocComment))
        .collect();
    let text = |k: usize| -> &str { sig[k].1.text(src) };
    let texts: Vec<&str> = sig.iter().map(|(_, t)| t.text(src)).collect();

    struct Scope {
        /// `Some(type)` for impl blocks, `None` otherwise.
        impl_type: Option<String>,
        /// Module-path segment this scope contributes, if any.
        mod_name: Option<String>,
        is_test: bool,
    }
    let mut scopes: Vec<Scope> = Vec::new();
    let mut fns = Vec::new();
    let mut pending_attrs: Vec<String> = Vec::new();
    let mut k = 0usize;

    // Skips a balanced `( … )` / `[ … ]` / `{ … }` / `< … >` group whose
    // opener is at `k`; returns the index one past the closer. The `>` of
    // a `->` closes nothing.
    let skip_group = |sig: &[(usize, Token)], mut k: usize, open: &str, close: &str| -> usize {
        let mut depth = 0usize;
        while k < sig.len() {
            let t = sig[k].1.text(src);
            if t == open {
                depth += 1;
            } else if t == close && !(t == ">" && sig[k - 1].1.text(src) == "-") {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            k += 1;
        }
        k
    };

    while k < sig.len() {
        let tok = sig[k].1;
        let word = text(k);
        match (tok.kind, word) {
            (TokenKind::Punct, "#") if k + 1 < sig.len() && text(k + 1) == "[" => {
                // Attribute: capture its text for cfg analysis.
                let end = skip_group(&sig, k + 1, "[", "]");
                let span_start = sig[k].1.start;
                let span_end = sig.get(end - 1).map_or(span_start, |(_, t)| t.end);
                pending_attrs.push(src.get(span_start..span_end).unwrap_or("").to_owned());
                k = end;
            }
            (TokenKind::Punct, "{") => {
                scopes.push(Scope {
                    impl_type: None,
                    mod_name: None,
                    is_test: false,
                });
                pending_attrs.clear();
                k += 1;
            }
            (TokenKind::Punct, "}") => {
                scopes.pop();
                pending_attrs.clear();
                k += 1;
            }
            (TokenKind::Ident, "mod") => {
                let name = sig
                    .get(k + 1)
                    .filter(|(_, t)| t.kind == TokenKind::Ident)
                    .map(|(_, t)| t.text(src).to_owned());
                let is_test = attrs_mark_test(&pending_attrs);
                pending_attrs.clear();
                // `mod name;` declares, `mod name {` defines a scope.
                if sig.get(k + 2).is_some_and(|(_, t)| t.text(src) == "{") {
                    scopes.push(Scope {
                        impl_type: None,
                        mod_name: name,
                        is_test,
                    });
                    k += 3;
                } else {
                    k += 2;
                }
            }
            (TokenKind::Ident, "impl") => {
                // Find the `{`, remembering the last path ident (after
                // `for` when present) as the implemented type.
                let mut j = k + 1;
                if j < sig.len() && text(j) == "<" {
                    j = skip_group(&sig, j, "<", ">");
                }
                let mut ty: Option<String> = None;
                let mut angle = 0usize;
                let mut in_where = false;
                while j < sig.len() {
                    let w = text(j);
                    match w {
                        "{" => break,
                        ";" => break,
                        // `impl Trait for Type`: the type follows `for`.
                        "for" => ty = None,
                        "<" => angle += 1,
                        ">" => angle = angle.saturating_sub(1),
                        // `where` clauses name types that are not the
                        // implemented one.
                        "where" if angle == 0 => in_where = true,
                        _ if sig[j].1.kind == TokenKind::Ident && angle == 0 && !in_where => {
                            ty = Some(w.to_owned());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let is_test = attrs_mark_test(&pending_attrs);
                pending_attrs.clear();
                if j < sig.len() && text(j) == "{" {
                    scopes.push(Scope {
                        impl_type: ty,
                        mod_name: None,
                        is_test,
                    });
                    k = j + 1;
                } else {
                    k = j + 1;
                }
            }
            (TokenKind::Ident, "struct" | "enum" | "union") => {
                // Skip the item: to `;` or over its brace group.
                pending_attrs.clear();
                let mut j = k + 1;
                while j < sig.len() && text(j) != "{" && text(j) != ";" {
                    if text(j) == "(" {
                        j = skip_group(&sig, j, "(", ")");
                        continue;
                    }
                    j += 1;
                }
                if j < sig.len() && text(j) == "{" {
                    j = skip_group(&sig, j, "{", "}");
                }
                k = j.max(k + 1);
            }
            (TokenKind::Ident, "trait") => {
                // Enter the trait scope; default method bodies inside are
                // extracted like impl fns (no impl type).
                let mut j = k + 1;
                while j < sig.len() && text(j) != "{" && text(j) != ";" {
                    j += 1;
                }
                let is_test = attrs_mark_test(&pending_attrs);
                pending_attrs.clear();
                if j < sig.len() && text(j) == "{" {
                    scopes.push(Scope {
                        impl_type: None,
                        mod_name: None,
                        is_test,
                    });
                    k = j + 1;
                } else {
                    k = j + 1;
                }
            }
            (TokenKind::Ident, "fn") => {
                let Some((_, name_tok)) = sig.get(k + 1).copied() else {
                    k += 1;
                    continue;
                };
                let name = name_tok.text(src).to_owned();
                // Locate the body `{` (or a `;` for bodyless trait fns),
                // skipping parameter parens and generic groups. The first
                // `(` at this level opens the parameters.
                let mut j = k + 2;
                let mut body: Option<(usize, usize)> = None;
                let mut params: Option<usize> = None;
                while j < sig.len() {
                    match text(j) {
                        "(" => {
                            params.get_or_insert(j);
                            j = skip_group(&sig, j, "(", ")");
                        }
                        "<" => {
                            j = skip_group(&sig, j, "<", ">");
                        }
                        ";" => {
                            j += 1;
                            break;
                        }
                        "{" => {
                            let end = skip_group(&sig, j, "{", "}");
                            // Convert significant-token indices back to
                            // raw token-stream indices.
                            body = Some((sig[j].0, sig.get(end - 1).map_or(sig[j].0, |(r, _)| *r)));
                            j = end;
                            break;
                        }
                        _ => j += 1,
                    }
                }
                let in_test_scope = scopes.iter().any(|s| s.is_test);
                let own_test = attrs_mark_test(&pending_attrs);
                let debug_only = pending_attrs.iter().any(|a| {
                    a.contains("debug_assertions") || (a.contains("feature") && a.contains("audit"))
                });
                let impl_type = scopes.iter().rev().find_map(|s| s.impl_type.clone());
                let mods: Vec<&str> = scopes
                    .iter()
                    .filter_map(|s| s.mod_name.as_deref())
                    .collect();
                let mut qual = String::from(path);
                for m in &mods {
                    qual.push_str("::");
                    qual.push_str(m);
                }
                if let Some(t) = &impl_type {
                    qual.push_str("::");
                    qual.push_str(t);
                }
                qual.push_str("::");
                qual.push_str(&name);
                let calls =
                    body.map_or_else(Vec::new, |(b0, b1)| extract_calls(src, tokens, b0, b1 + 1));
                let arity = params.map_or(0, |open| {
                    let (items, has_self) = list_items(&texts, open, true);
                    items - usize::from(has_self)
                });
                fns.push(FnInfo {
                    file,
                    name,
                    qual,
                    impl_type,
                    line: tok.line,
                    body: body.map(|(b0, b1)| (b0, b1 + 1)),
                    arity,
                    is_test: in_test_scope || own_test,
                    debug_only,
                    calls,
                });
                pending_attrs.clear();
                k = j.max(k + 2);
            }
            _ => {
                if word == ";" {
                    pending_attrs.clear();
                }
                k += 1;
            }
        }
    }
    fns
}

/// Whether an attribute list marks a test item: `#[test]` or any
/// `#[cfg(…test…)]` combination.
fn attrs_mark_test(attrs: &[String]) -> bool {
    attrs.iter().any(|a| {
        let inner = a.trim_start_matches(['#', '[']).trim_end_matches(']');
        inner == "test"
            || inner.starts_with("tokio::test")
            || (inner.starts_with("cfg") && has_word(inner, "test"))
    })
}

/// Whether `needle` occurs in `hay` as a whole word (not inside a longer
/// identifier — `cfg(feature = "latest")` must not read as test-gated).
fn has_word(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(rel) = hay.get(from..).and_then(|h| h.find(needle)) {
        let at = from + rel;
        let before_ok = at == 0
            || !hay.as_bytes()[at - 1].is_ascii_alphanumeric() && hay.as_bytes()[at - 1] != b'_';
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay.as_bytes()[after].is_ascii_alphanumeric() && hay.as_bytes()[after] != b'_';
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

/// What the parenthesized list opened at `texts[open]` holds: how many
/// top-level comma-separated items, and whether the first names `self`
/// before any `:` (a method receiver).
///
/// `(`, `[` and `{` nest. `<` nests where it opens generics: everywhere
/// in a parameter list (`params`), and after `::` (a turbofish) in an
/// argument list; a `>` closes one unless it ends `->`. In an argument
/// list a `|` in prefix position ([`opens_closure`]) opens closure
/// parameters, whose commas are not the list's. A closure whose body is
/// a closure (`|a| |b, c| …`) is not seen: the inner `|` follows a `|`,
/// as the second half of `||` does.
fn list_items(texts: &[&str], open: usize, params: bool) -> (usize, bool) {
    let (mut depth, mut angle) = (0usize, 0usize);
    let (mut items, mut starts) = (0usize, true);
    let (mut receiver, mut in_first_head) = (false, true);
    let mut i = open + 1;
    while let Some(&t) = texts.get(i) {
        let prev = texts[i - 1];
        let top = depth == 0 && angle == 0;
        if top && t == ")" {
            break;
        }
        if top && t == "," {
            starts = true;
            in_first_head = false;
            i += 1;
            continue;
        }
        items += usize::from(std::mem::replace(&mut starts, false));
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "<" if params || (prev == ":" && i >= 2 && texts[i - 2] == ":") => angle += 1,
            ">" if angle > 0 && prev != "-" => angle -= 1,
            ":" if top => in_first_head = false,
            "self" if in_first_head => receiver = true,
            "|" if !params && top && opens_closure(prev) => {
                // Skip to the `|` that closes the closure's parameters.
                i += 1;
                let mut inner = 0usize;
                while let Some(&c) = texts.get(i) {
                    match c {
                        "(" | "[" | "{" => inner += 1,
                        ")" | "]" | "}" => inner = inner.saturating_sub(1),
                        "|" if inner == 0 => break,
                        _ => {}
                    }
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    (items, receiver)
}

/// Whether a `|` after `prev` opens closure parameters: it is in prefix
/// position, after no operand (an identifier, literal, `)`, `]`, `}` or
/// `?`), and not the second half of `||`.
fn opens_closure(prev: &str) -> bool {
    match prev {
        ")" | "]" | "}" | "?" | "|" => false,
        "move" | "mut" | "return" | "in" => true,
        _ => !prev.starts_with(|c: char| c.is_alphanumeric() || matches!(c, '_' | '"' | '\'')),
    }
}

/// Call sites within a raw-token range (comments still present).
fn extract_calls(src: &str, tokens: &[Token], start: usize, end: usize) -> Vec<CallSite> {
    let sig: Vec<&Token> = tokens[start..end.min(tokens.len())]
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment | TokenKind::DocComment))
        .collect();
    let texts: Vec<&str> = sig.iter().map(|t| t.text(src)).collect();
    let mut out = Vec::new();
    for i in 0..sig.len() {
        if sig[i].kind != TokenKind::Ident {
            continue;
        }
        let name = sig[i].text(src);
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // Must be immediately followed by `(`.
        if sig.get(i + 1).is_none_or(|t| t.text(src) != "(") {
            continue;
        }
        // `ident!(…)` is a macro, not a call; `fn ident(` is a definition.
        let prev = i.checked_sub(1).map(|p| sig[p].text(src));
        if prev == Some("!") || prev == Some("fn") {
            continue;
        }
        let is_method = prev == Some(".");
        let qualifier = if !is_method
            && i >= 3
            && sig[i - 1].text(src) == ":"
            && sig[i - 2].text(src) == ":"
            && sig[i - 3].kind == TokenKind::Ident
        {
            Some(sig[i - 3].text(src).to_owned())
        } else {
            None
        };
        out.push(CallSite {
            line: sig[i].line,
            name: name.to_owned(),
            qualifier,
            is_method,
            args: list_items(&texts, i + 1, false).0,
        });
    }
    out
}

/// Builds the resolved call graph over `fns`.
///
/// Resolution policy, tuned for precision over recall:
/// * a qualified call `Q::f` resolves to functions named `f` whose impl
///   type is `Q` or whose qualified path contains `Q` as a segment;
/// * an unqualified or method call resolves to same-crate functions with
///   that name; failing that, to a unique workspace-wide match. A method
///   call then keeps only the functions whose [`FnInfo::arity`] is its
///   [`CallSite::args`]: arity removes edges, it never picks a match the
///   name alone would not.
///
/// Test functions neither emit nor receive edges.
#[must_use]
pub fn build_graph(fns: Vec<FnInfo>, file_paths: &[String]) -> ItemGraph {
    use std::collections::BTreeMap;
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        if !f.is_test {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
    }
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    let mut edges = 0usize;
    for (i, f) in fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let my_crate = crate_of(&file_paths[f.file]);
        let mut tgt: Vec<usize> = Vec::new();
        for c in &f.calls {
            let Some(cands) = by_name.get(c.name.as_str()) else {
                continue;
            };
            if let Some(q) = &c.qualifier {
                for &j in cands {
                    let g = &fns[j];
                    let seg = format!("::{q}::");
                    let file_seg = format!("/{q}.rs::");
                    let hit = if q == "Self" {
                        g.impl_type.is_some() && g.impl_type == f.impl_type
                    } else {
                        g.impl_type.as_deref() == Some(q.as_str())
                            || g.qual.contains(&seg)
                            || g.qual.contains(&file_seg)
                    };
                    if hit {
                        tgt.push(j);
                    }
                }
                continue;
            }
            let same_crate: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&j| crate_of(&file_paths[fns[j].file]) == my_crate)
                .collect();
            let picked = if !same_crate.is_empty() {
                same_crate
            } else if cands.len() == 1 {
                cands.clone()
            } else {
                Vec::new()
            };
            tgt.extend(
                picked
                    .into_iter()
                    .filter(|&j| !c.is_method || fns[j].arity == c.args),
            );
        }
        tgt.sort_unstable();
        tgt.dedup();
        edges += tgt.len();
        callees[i] = tgt;
    }
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
    for (i, outs) in callees.iter().enumerate() {
        for &j in outs {
            callers[j].push(i);
        }
    }
    ItemGraph {
        fns,
        callees,
        callers,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn extracts_impl_methods_with_qualified_names() {
        let src = "impl<'a> Engine<'a> { fn run(&mut self) { self.step(); helper(); } }\n\
                   fn helper() {}";
        let toks = lex(src);
        let fns = extract_fns(0, "crates/sim/src/engine.rs", src, &toks);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].qual, "crates/sim/src/engine.rs::Engine::run");
        assert_eq!(fns[0].impl_type.as_deref(), Some("Engine"));
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["step", "helper"]);
    }

    #[test]
    fn cfg_test_modules_mark_fns_as_test() {
        let src = "#[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} }\nfn real() {}";
        let toks = lex(src);
        let fns = extract_fns(0, "crates/core/src/x.rs", src, &toks);
        assert!(fns.iter().find(|f| f.name == "helper").unwrap().is_test);
        assert!(fns.iter().find(|f| f.name == "t").unwrap().is_test);
        assert!(!fns.iter().find(|f| f.name == "real").unwrap().is_test);
    }

    #[test]
    fn qualified_calls_resolve_across_crates() {
        let files = vec![
            "crates/sim/src/engine.rs".to_owned(),
            "crates/core/src/machine.rs".to_owned(),
        ];
        let mut fns = Vec::new();
        let a = "fn drive() { Machine::point(0); }";
        let b = "impl Machine { fn point(&self, i: usize) {} }";
        fns.extend(extract_fns(0, &files[0], a, &lex(a)));
        fns.extend(extract_fns(1, &files[1], b, &lex(b)));
        let g = build_graph(fns, &files);
        let drive = g.fns.iter().position(|f| f.name == "drive").unwrap();
        let point = g.fns.iter().position(|f| f.name == "point").unwrap();
        assert!(g.callees[drive].contains(&point));
        assert!(g.callers[point].contains(&drive));
    }

    #[test]
    fn method_calls_resolve_by_arity() {
        let files = vec!["crates/kernel/src/snapshot.rs".to_owned()];
        let src = "impl Writer { fn time(&mut self, t: Time) {} }\n\
                   impl Cursor { fn time(&mut self) -> Option<Time> { None } }\n\
                   fn write(w: &mut Writer, c: &mut Cursor) { w.time(t); c.time(); }";
        let g = build_graph(extract_fns(0, &files[0], src, &lex(src)), &files);
        let find = |qual: &str| g.fns.iter().position(|f| f.qual.ends_with(qual)).unwrap();
        let (write, writer, cursor) = (find("::write"), find("Writer::time"), find("Cursor::time"));
        assert_eq!((g.fns[writer].arity, g.fns[cursor].arity), (1, 0));
        let args: Vec<usize> = g.fns[write].calls.iter().map(|c| c.args).collect();
        assert_eq!(args, [1, 0]);
        // Each call reaches the one method of its arity, not both.
        assert_eq!(g.callees[write], [writer, cursor]);
        assert_eq!(g.callers[writer], [write]);
        assert_eq!(g.callers[cursor], [write]);
    }

    #[test]
    fn argument_and_parameter_lists_count_top_level_items() {
        let src = "fn f<F: Fn(u8, u8) -> u8>(&'a mut self, a: HashMap<K, V>, b: F,) {\n\
                   x.g(|a, b| a + b, move |c| c, Vec::<(u8, u8)>::new(), [1, 2], h(3, 4));\n\
                   x.k(); x.m(|| 0, 1,); x.n((a, b), { c; d }, a < b, e > f);\n\
                   x.p(&|a, b| a | b, &mut |c, d| c, e | f, g || h, i? | j) }\n\
                   fn free((a, b): (u8, u8), self_: u8) {}\n\
                   fn ret<F: Fn() -> (u8, u8)>(f: F) -> (u8, u8, u8) { f() }";
        let fns = extract_fns(0, "crates/core/src/x.rs", src, &lex(src));
        let arity: Vec<usize> = fns.iter().map(|f| f.arity).collect();
        assert_eq!(arity, [2, 2, 1]);
        let args: Vec<(&str, usize)> = fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.args))
            .collect();
        assert_eq!(
            args,
            [
                ("g", 5),
                ("new", 0),
                ("h", 2),
                ("k", 0),
                ("m", 2),
                ("n", 4),
                ("p", 5)
            ]
        );
    }
}
