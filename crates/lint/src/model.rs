//! Structural model of a source file: functions with their bodies, the
//! module path and impl context they live in, and whether they are test
//! code.
//!
//! Built by a single recursive pass over the token stream from
//! [`crate::lexer`]. The pass understands just enough item structure
//! (`mod`, `impl`, `fn`, attributes) to attribute every function body to a
//! qualified name; it does not descend into function bodies looking for
//! nested items (test helpers defined inside `#[test]` functions are test
//! code anyway and excluded wholesale).

use std::ops::Range;

use crate::lexer::{lex, Tok, TokKind};

/// One analyzed source file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path (display + baseline key).
    pub rel: String,
    /// Token stream of the whole file.
    pub toks: Vec<Tok>,
    /// Every function found at item level (including inside impls and
    /// nested modules).
    pub fns: Vec<FnDecl>,
    /// Crate-qualified module path of the file, e.g. `ompi::pml`.
    pub module: String,
    /// Token ranges of test code: `#[cfg(test)]` modules and `#[test]`
    /// functions.
    pub test_spans: Vec<Range<usize>>,
}

impl FileModel {
    /// True when token `i` lies inside test code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_spans.iter().any(|r| r.contains(&i))
    }
}

/// A function declaration with its body span.
#[derive(Debug)]
pub struct FnDecl {
    /// Bare function name.
    pub name: String,
    /// `module::[Type::]name` — used in reports and the call graph.
    pub qual: String,
    /// Impl self-type when declared inside an `impl` block.
    pub self_ty: Option<String>,
    /// Trait name when declared inside an `impl Trait for Type` block.
    pub trait_name: Option<String>,
    /// True when inside `#[cfg(test)]` / `#[test]` scope.
    pub is_test: bool,
    /// True when declared plain `pub` (not `pub(crate)` or private).
    pub is_pub: bool,
    /// Token range of the signature, from after `fn name` to the body `{`.
    pub sig: Range<usize>,
    /// Token range of the body, inside (excluding) the braces.
    pub body: Range<usize>,
}

/// Derive the `crate::module` path for a file inside `crates/<name>/src/`.
fn module_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let (krate, tail) = match parts.as_slice() {
        ["crates", k, "src", rest @ ..] => ((*k).to_string(), rest.to_vec()),
        ["src", rest @ ..] => ("ompi_cr".to_string(), rest.to_vec()),
        _ => (rel.to_string(), Vec::new()),
    };
    let krate = krate.replace('-', "_");
    let mut out = krate;
    for t in tail {
        let stem = t.strip_suffix(".rs").unwrap_or(t);
        if stem != "lib" && stem != "main" && stem != "mod" {
            out.push_str("::");
            out.push_str(stem);
        }
    }
    out
}

/// Parse `src` (at workspace-relative path `rel`) into a [`FileModel`].
pub fn parse_file(rel: &str, src: &str) -> FileModel {
    let toks = lex(src);
    let module = module_of(rel);
    let mut fns = Vec::new();
    let mut test_spans = Vec::new();
    let mut p = Parser {
        toks: &toks,
        fns: &mut fns,
        test_spans: &mut test_spans,
    };
    p.items(0, toks.len(), &module, None, None, false);
    FileModel {
        rel: rel.to_string(),
        toks,
        fns,
        module,
        test_spans,
    }
}

struct Parser<'a> {
    toks: &'a [Tok],
    fns: &'a mut Vec<FnDecl>,
    test_spans: &'a mut Vec<Range<usize>>,
}

impl Parser<'_> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.toks.get(i)
    }

    /// Index just past the `{ ... }` block whose opening brace is at `open`.
    fn skip_block(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            if let Some(t) = self.tok(i) {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
            }
            i += 1;
        }
        end
    }

    /// Walk items in `toks[i..end]`; `in_test` marks enclosing test scope.
    #[allow(clippy::too_many_arguments)]
    fn items(
        &mut self,
        mut i: usize,
        end: usize,
        module: &str,
        self_ty: Option<&str>,
        trait_name: Option<&str>,
        in_test: bool,
    ) {
        let mut attr_test = false;
        while i < end {
            let Some(t) = self.tok(i) else { break };
            if t.is_punct('#') {
                let (is_test_attr, next) = self.attr(i, end);
                attr_test |= is_test_attr;
                i = next;
            } else if t.is_ident("mod") {
                let name = self
                    .tok(i + 1)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                if self.tok(i + 2).is_some_and(|t| t.is_punct('{')) {
                    let after = self.skip_block(i + 2, end);
                    let sub = format!("{module}::{name}");
                    if attr_test && !in_test {
                        self.test_spans.push(i..after);
                    }
                    self.items(i + 3, after - 1, &sub, None, None, in_test || attr_test);
                    i = after;
                } else {
                    i += 3; // `mod name;`
                }
                attr_test = false;
            } else if t.is_ident("impl") {
                i = self.impl_block(i, end, module, in_test || attr_test);
                attr_test = false;
            } else if t.is_ident("fn") {
                i = self.fn_item(i, end, module, self_ty, trait_name, in_test || attr_test);
                attr_test = false;
            } else if t.is_punct('{') {
                // Brace of some other item (struct, enum, trait, const
                // block): skip it wholesale. Trait default bodies are not
                // analyzed — only impls carry behaviour we lint.
                i = self.skip_block(i, end);
                attr_test = false;
            } else {
                i += 1;
                if t.is_punct(';') {
                    attr_test = false;
                }
            }
        }
    }

    /// Parse a `#[...]` attribute at `i`; report whether it marks test code.
    fn attr(&self, i: usize, end: usize) -> (bool, usize) {
        // i points at `#`; accept `#![...]` too.
        let mut j = i + 1;
        if self.tok(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if !self.tok(j).is_some_and(|t| t.is_punct('[')) {
            return (false, i + 1);
        }
        let mut depth = 0i32;
        let mut is_test = false;
        let mut saw_cfg = false;
        while j < end {
            let Some(t) = self.tok(j) else { break };
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    return (is_test, j + 1);
                }
            } else if t.is_ident("cfg") {
                saw_cfg = true;
            } else if t.is_ident("test") {
                // `#[test]`, `#[cfg(test)]`, `#[tokio::test]`-style.
                is_test = true;
            } else if saw_cfg && t.is_ident("bench") {
                is_test = true;
            }
            j += 1;
        }
        (is_test, end)
    }

    /// Parse an `impl` header at `i` and recurse into its block.
    fn impl_block(&mut self, i: usize, end: usize, module: &str, in_test: bool) -> usize {
        // Collect path segments between `impl` and `{`, noting a `for`.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut seen_for = false;
        while j < end {
            let Some(t) = self.tok(j) else { break };
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                angle -= 1;
            } else if angle == 0 && t.is_punct('{') {
                break;
            } else if angle == 0 && t.is_ident("for") {
                seen_for = true;
            } else if angle == 0 && t.is_ident("where") {
                // Bounds may mention trait-like idents; stop collecting.
                while j < end && !self.tok(j).is_some_and(|t| t.is_punct('{')) {
                    j += 1;
                }
                break;
            } else if angle == 0 && t.kind == TokKind::Ident {
                if seen_for {
                    after_for.push(t.text.clone());
                } else {
                    before_for.push(t.text.clone());
                }
            }
            j += 1;
        }
        if j >= end {
            return end;
        }
        let (trait_name, self_ty) = if seen_for {
            (before_for.last().cloned(), after_for.last().cloned())
        } else {
            (None, before_for.last().cloned())
        };
        let after = self.skip_block(j, end);
        self.items(
            j + 1,
            after - 1,
            module,
            self_ty.as_deref(),
            trait_name.as_deref(),
            in_test,
        );
        after
    }

    /// Parse a `fn` item at `i` (token `fn`), record it, return next index.
    #[allow(clippy::too_many_arguments)]
    fn fn_item(
        &mut self,
        i: usize,
        end: usize,
        module: &str,
        self_ty: Option<&str>,
        trait_name: Option<&str>,
        is_test: bool,
    ) -> usize {
        let Some(name_tok) = self.tok(i + 1) else {
            return i + 1;
        };
        if name_tok.kind != TokKind::Ident {
            return i + 1;
        }
        let name = name_tok.text.clone();
        // Find the body `{` (or `;` for a bodiless trait method) at zero
        // paren/angle/bracket depth.
        let mut j = i + 2;
        let (mut paren, mut angle, mut bracket) = (0i32, 0i32, 0i32);
        while j < end {
            let Some(t) = self.tok(j) else { break };
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct('[') {
                bracket += 1;
            } else if t.is_punct(']') {
                bracket -= 1;
            } else if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') {
                // `->` must not close an angle bracket.
                if !self.tok(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('-')) {
                    angle -= 1;
                }
            } else if paren == 0 && bracket == 0 && angle <= 0 && t.is_punct('{') {
                break;
            } else if paren == 0 && bracket == 0 && t.is_punct(';') {
                return j + 1; // trait method without body
            }
            j += 1;
        }
        if j >= end {
            return end;
        }
        let after = self.skip_block(j, end);
        if is_test {
            self.test_spans.push(i..after);
        }
        let is_pub = match i.checked_sub(1).and_then(|k| self.tok(k)) {
            Some(t) if t.is_ident("pub") => true,
            Some(t) if ["const", "async", "unsafe"].iter().any(|q| t.is_ident(q)) => {
                i.checked_sub(2)
                    .and_then(|k| self.tok(k))
                    .is_some_and(|t| t.is_ident("pub"))
            }
            _ => false,
        };
        let qual = match self_ty {
            Some(ty) => format!("{module}::{ty}::{name}"),
            None => format!("{module}::{name}"),
        };
        self.fns.push(FnDecl {
            name,
            qual,
            self_ty: self_ty.map(str::to_string),
            trait_name: trait_name.map(str::to_string),
            is_test,
            is_pub,
            sig: (i + 2)..j,
            body: (j + 1)..(after - 1),
        });
        after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_functions_with_context() {
        let src = r#"
            pub fn free() {}
            impl Widget {
                fn method(&self) { self.x = 1; }
            }
            impl FtEvent for Widget {
                fn ft_event(&mut self, state: FtEventState) -> R { Ok(()) }
            }
            mod inner {
                pub fn nested() {}
            }
            #[cfg(test)]
            mod tests {
                #[test]
                fn a_test() {}
            }
        "#;
        let m = parse_file("crates/demo/src/w.rs", src);
        let names: Vec<(&str, Option<&str>, Option<&str>, bool)> = m
            .fns
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.self_ty.as_deref(),
                    f.trait_name.as_deref(),
                    f.is_test,
                )
            })
            .collect();
        assert_eq!(
            names,
            vec![
                ("free", None, None, false),
                ("method", Some("Widget"), None, false),
                ("ft_event", Some("Widget"), Some("FtEvent"), false),
                ("nested", None, None, false),
                ("a_test", None, None, true),
            ]
        );
        let public: Vec<bool> = m.fns.iter().map(|f| f.is_pub).collect();
        assert_eq!(public, [true, false, false, true, false]);
        let test_fn = m.toks.iter().position(|t| t.is_ident("a_test"));
        assert!(test_fn.is_some_and(|i| m.in_test(i)));
        assert!(!m.in_test(1), "`free` is library code");
        assert_eq!(m.fns[0].qual, "demo::w::free");
        assert_eq!(m.fns[1].qual, "demo::w::Widget::method");
        assert_eq!(m.fns[3].qual, "demo::w::inner::nested");
        assert_eq!(m.module, "demo::w");
    }

    #[test]
    fn generic_impl_headers() {
        let src = "impl<T: FtEvent + Send> FtEvent for OnceFt<T> { fn ft_event(&mut self) {} }";
        let m = parse_file("crates/demo/src/lib.rs", src);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].self_ty.as_deref(), Some("OnceFt"));
        assert_eq!(m.fns[0].trait_name.as_deref(), Some("FtEvent"));
    }

    #[test]
    fn trait_decl_methods_skipped_bodies_spanned() {
        let src = "trait T { fn sig_only(&self); } fn real() { let x = 1; }";
        let m = parse_file("crates/demo/src/lib.rs", src);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "real");
        let body: Vec<&str> = m.toks[m.fns[0].body.clone()]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(body, ["let", "x", "=", "1", ";"]);
    }

    #[test]
    fn return_type_arrow_does_not_confuse_sig() {
        let src = "fn f(x: Vec<u8>) -> Result<(), E> { body(); }";
        let m = parse_file("crates/demo/src/lib.rs", src);
        assert_eq!(m.fns.len(), 1);
        assert!(m.toks[m.fns[0].body.clone()].iter().any(|t| t.is_ident("body")));
    }

    #[test]
    fn root_package_module_path() {
        assert_eq!(module_of("src/lib.rs"), "ompi_cr");
        assert_eq!(module_of("crates/core/src/inc.rs"), "core::inc");
    }
}
