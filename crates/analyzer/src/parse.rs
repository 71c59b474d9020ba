//! A dependency-free item/brace-tree parser over the lexer's token
//! stream.
//!
//! The flow-aware rule (`PANIC-PATH-T`) needs to know *which function*
//! a token belongs to, not just which file — so this module recovers the item tree the lexer flattened:
//! `mod` nesting, `impl`/`trait` blocks with their self type, and every
//! `fn` with its qualified name and body token range. It is a
//! brace-matcher, not a grammar: it only reacts to the five tokens that
//! open scopes (`#[`, `mod`, `impl`, `trait`, `fn`) and skips
//! everything else, which keeps it robust against the long tail of Rust
//! syntax the rules never need to understand.

use crate::lexer::{Tok, TokKind};

/// One `fn` item recovered from a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Bare function name (`step`).
    pub name: String,
    /// Display-qualified name (`fleet::host::Host::step`).
    pub qual: String,
    /// Module path of the defining scope (`fleet::host`).
    pub module: String,
    /// Defining crate (`fleet`; the facade crate is `pageforge`).
    pub crate_name: String,
    /// `impl`/`trait` self type for methods, `None` for free functions.
    pub self_ty: Option<String>,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body *contents* (between the braces,
    /// exclusive) as indices into the file's test-stripped stream.
    pub body: (usize, usize),
}

/// Parses one file's test-stripped token stream into its `fn` items.
pub fn parse_file(rel: &str, toks: &[Tok]) -> Vec<FnDef> {
    let (crate_name, module) = module_path(rel);
    let mut out = Vec::new();
    parse_items(
        rel,
        &crate_name,
        toks,
        0,
        toks.len(),
        &module,
        None,
        &mut out,
    );
    out
}

/// Maps a workspace-relative path to `(crate, module path)`:
/// `crates/ksm/src/algorithm.rs` → (`ksm`, `ksm::algorithm`),
/// `crates/bench/src/bin/run_all.rs` → (`bench`, `bench::bin::run_all`),
/// `src/lib.rs` → (`pageforge`, `pageforge`).
pub fn module_path(rel: &str) -> (String, String) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, under_src): (&str, &[&str]) = match parts.as_slice() {
        ["crates", c, "src", rest @ ..] => (c, rest),
        ["src", rest @ ..] => ("pageforge", rest),
        _ => ("pageforge", &[]),
    };
    let mut module = vec![crate_name.to_owned()];
    for (i, seg) in under_src.iter().enumerate() {
        let last = i + 1 == under_src.len();
        if last {
            let stem = seg.strip_suffix(".rs").unwrap_or(seg);
            if stem != "lib" && stem != "mod" {
                module.push(stem.to_owned());
            }
        } else {
            module.push((*seg).to_owned());
        }
    }
    (crate_name.to_owned(), module.join("::"))
}

/// Finds the index of the `}` matching the `{` at `open`.
pub fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Skips a balanced `<...>` generic-parameter list starting at `open`
/// (which must be `<`), tolerating `->` arrows inside `Fn() -> T`
/// bounds. Returns the index just past the closing `>`.
fn skip_angles(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('<') {
            depth += 1;
        } else if toks[i].is_punct('>') && !(i > 0 && toks[i - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

#[allow(clippy::too_many_arguments)]
fn parse_items(
    rel: &str,
    crate_name: &str,
    toks: &[Tok],
    mut i: usize,
    end: usize,
    module: &str,
    self_ty: Option<&str>,
    out: &mut Vec<FnDef>,
) {
    while i < end {
        let t = &toks[i];
        // Attributes: skip `#[ ... ]` wholesale (their contents can
        // contain scope keywords inside `cfg_attr` and doc strings).
        if t.is_punct('#') && i + 1 < end && toks[i + 1].is_punct('[') {
            let mut depth = 0usize;
            i += 1;
            while i < end {
                if toks[i].is_punct('[') {
                    depth += 1;
                } else if toks[i].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
            continue;
        }
        // `use ...;` — paths may contain raw-ident keywords; skip.
        if t.is_ident("use") {
            while i < end && !toks[i].is_punct(';') {
                i += 1;
            }
            i += 1;
            continue;
        }
        // `macro_rules! name { ... }` — fragments may contain `fn`.
        if t.is_ident("macro_rules") {
            let mut j = i;
            while j < end && !toks[j].is_punct('{') {
                j += 1;
            }
            i = if j < end {
                match_brace(toks, j) + 1
            } else {
                end
            };
            continue;
        }
        // `mod name { ... }` (inline); `mod name;` declares a file
        // module the walk visits separately.
        if t.is_ident("mod") && i + 1 < end && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            if i + 2 < end && toks[i + 2].is_punct('{') {
                let close = match_brace(toks, i + 2);
                let inner = format!("{module}::{name}");
                parse_items(rel, crate_name, toks, i + 3, close, &inner, None, out);
                i = close + 1;
            } else {
                i += 2;
            }
            continue;
        }
        // `impl<..> Type { .. }` / `impl<..> Trait for Type { .. }`.
        if t.is_ident("impl") {
            let mut j = i + 1;
            if j < end && toks[j].is_punct('<') {
                j = skip_angles(toks, j);
            }
            // Scan the type region up to `{`; the self type is the last
            // top-level path segment (after `for` if present).
            let mut ty: Option<String> = None;
            let mut angle = 0i32;
            while j < end && !toks[j].is_punct('{') {
                let tj = &toks[j];
                if tj.is_punct('<') {
                    angle += 1;
                } else if tj.is_punct('>') && !(j > 0 && toks[j - 1].is_punct('-')) {
                    angle -= 1;
                } else if angle == 0 {
                    if tj.is_ident("for") {
                        ty = None; // trait name seen so far; self type follows
                    } else if tj.is_ident("where") {
                        break;
                    } else if tj.kind == TokKind::Ident {
                        ty = Some(tj.text.clone());
                    }
                }
                j += 1;
            }
            while j < end && !toks[j].is_punct('{') {
                j += 1;
            }
            if j < end {
                let close = match_brace(toks, j);
                parse_items(
                    rel,
                    crate_name,
                    toks,
                    j + 1,
                    close,
                    module,
                    ty.as_deref(),
                    out,
                );
                i = close + 1;
            } else {
                i = end;
            }
            continue;
        }
        // `trait Name { .. }` — default method bodies are methods of
        // the trait for the call graph's purposes.
        if t.is_ident("trait") && i + 1 < end && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let mut j = i + 2;
            while j < end && !toks[j].is_punct('{') {
                if toks[j].is_punct(';') {
                    break; // `trait Alias = ..;` has no body
                }
                j += 1;
            }
            if j < end && toks[j].is_punct('{') {
                let close = match_brace(toks, j);
                parse_items(
                    rel,
                    crate_name,
                    toks,
                    j + 1,
                    close,
                    module,
                    Some(&name),
                    out,
                );
                i = close + 1;
            } else {
                i = j + 1;
            }
            continue;
        }
        // `fn name(..) -> Ret { .. }` — the payload.
        if t.is_ident("fn") && i + 1 < end && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.clone();
            let line = t.line;
            let mut j = i + 2;
            if j < end && toks[j].is_punct('<') {
                j = skip_angles(toks, j);
            }
            // Argument list.
            while j < end && !toks[j].is_punct('(') {
                j += 1;
            }
            let mut depth = 0usize;
            while j < end {
                if toks[j].is_punct('(') {
                    depth += 1;
                } else if toks[j].is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
            // Return type / where clause up to the body or `;`.
            while j < end && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j < end && toks[j].is_punct('{') {
                let close = match_brace(toks, j);
                let qual = match self_ty {
                    Some(ty) => format!("{module}::{ty}::{name}"),
                    None => format!("{module}::{name}"),
                };
                out.push(FnDef {
                    name,
                    qual,
                    module: module.to_owned(),
                    crate_name: crate_name.to_owned(),
                    self_ty: self_ty.map(str::to_owned),
                    path: rel.to_owned(),
                    line,
                    body: (j + 1, close),
                });
                // Recurse for nested `fn` items (rare but legal).
                parse_items(rel, crate_name, toks, j + 1, close, module, None, out);
                i = close + 1;
            } else {
                i = j + 1; // trait method declaration without a body
            }
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_tests};

    fn parse(rel: &str, src: &str) -> Vec<FnDef> {
        parse_file(rel, &strip_tests(&lex(src)))
    }

    #[test]
    fn module_paths_from_file_layout() {
        assert_eq!(
            module_path("crates/ksm/src/algorithm.rs"),
            ("ksm".into(), "ksm::algorithm".into())
        );
        assert_eq!(
            module_path("crates/ksm/src/lib.rs"),
            ("ksm".into(), "ksm".into())
        );
        assert_eq!(
            module_path("crates/bench/src/bin/run_all.rs"),
            ("bench".into(), "bench::bin::run_all".into())
        );
        assert_eq!(
            module_path("src/lib.rs"),
            ("pageforge".into(), "pageforge".into())
        );
    }

    #[test]
    fn free_fns_methods_and_trait_impls() {
        let src = "
            fn free() { body(); }
            struct S;
            impl S { fn method(&self) -> u32 { 1 } }
            impl std::fmt::Display for S {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { write() }
            }
            trait T { fn required(&self); fn defaulted(&self) { self.required() } }
        ";
        let fns = parse("crates/core/src/x.rs", src);
        let quals: Vec<&str> = fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            [
                "core::x::free",
                "core::x::S::method",
                "core::x::S::fmt",
                "core::x::T::defaulted"
            ]
        );
        assert_eq!(fns[1].self_ty.as_deref(), Some("S"));
    }

    #[test]
    fn nested_modules_and_generics() {
        let src = "
            mod inner {
                pub fn deep<T: Fn() -> u32>(f: T) -> u32 { f() }
                mod deeper { pub fn deepest() {} }
            }
            impl<T: Clone> Wrapper<T> { fn wrap(self) {} }
        ";
        let fns = parse("crates/sim/src/shard.rs", src);
        let quals: Vec<&str> = fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            [
                "sim::shard::inner::deep",
                "sim::shard::inner::deeper::deepest",
                "sim::shard::Wrapper::wrap"
            ]
        );
    }

    #[test]
    fn bodies_cover_exactly_the_braced_tokens() {
        let src = "fn a() { one(); two(); } fn b() {}";
        let toks = strip_tests(&lex(src));
        let fns = parse_file("crates/core/src/x.rs", &toks);
        let (s, e) = fns[0].body;
        let idents: Vec<&str> = toks[s..e]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["one", "two"]);
        assert_eq!(fns[1].body.0, fns[1].body.1);
    }

    #[test]
    fn test_items_are_already_stripped() {
        let src = "#[cfg(test)] mod tests { fn helper() {} }\nfn live() {}";
        let fns = parse("crates/core/src/x.rs", src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "live");
    }
}
