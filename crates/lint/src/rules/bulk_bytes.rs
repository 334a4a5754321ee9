//! Rule `bulk-bytes`: bulk byte fields of serialised types are
//! `codec::ByteBuf`, never `Vec<u8>`.
//!
//! serde treats a `Vec<u8>` like any other `Vec<T>`: the derive writes it
//! as a sequence of elements, and the checkpoint codec tags every element,
//! so each byte costs 2–3 bytes on disk and on the wire and one visitor
//! call on the way back. That was the largest measured cost in the system
//! (process images, replica pushes, chunk traffic and logged payloads all
//! paid it) and it comes back silently with one new field.
//! `codec::ByteBuf` is the same `Vec<u8>` crossing the codec as one raw
//! run.
//!
//! The rule flags every `Vec<u8>` — bare or nested (`Option<Vec<u8>>`,
//! `Vec<(Id, Vec<u8>)>`) — inside the body of a `struct` or `enum` whose
//! `#[derive(..)]` lists `Serialize`, in non-test code of the data-path
//! crates (`opal`, `orte`, `ompi`, `core`). There is no baseline: the
//! count is zero and stays zero.

use crate::lexer::{Tok, TokKind};
use crate::model::FileModel;
use crate::report::{Finding, Rule};

/// Crates whose serialised types sit on the checkpoint data path.
const DATA_PATH: [&str; 4] = [
    "crates/opal/src/",
    "crates/orte/src/",
    "crates/ompi/src/",
    "crates/core/src/",
];

/// Index just past the group whose opening delimiter is at `open`.
fn skip_group(toks: &[Tok], open: usize, opener: char, closer: char) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(opener) {
            depth += 1;
        } else if t.is_punct(closer) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
    }
    toks.len()
}

/// What the attribute starting at `#` says about the item it decorates:
/// `(derives Serialize, marks test code, index past the attribute)`.
fn attribute(toks: &[Tok], hash: usize) -> (bool, bool, usize) {
    let mut open = hash + 1;
    if toks.get(open).is_some_and(|t| t.is_punct('!')) {
        open += 1;
    }
    if !toks.get(open).is_some_and(|t| t.is_punct('[')) {
        return (false, false, hash + 1);
    }
    let end = skip_group(toks, open, '[', ']');
    let inside = toks.get(open + 1..end).unwrap_or(&[]);
    let has = |name: &str| inside.iter().any(|t| t.is_ident(name));
    let derives = inside.first().is_some_and(|t| t.is_ident("derive"));
    (derives && has("Serialize"), has("test"), end)
}

/// Check one file for `Vec<u8>` fields in `Serialize`-derived types.
pub fn check(file: &FileModel, findings: &mut Vec<Finding>) {
    if !DATA_PATH.iter().any(|p| file.rel.starts_with(p)) {
        return;
    }
    let toks = &file.toks;
    let (mut serialised, mut test) = (false, false);
    let mut i = 0usize;
    while let Some(t) = toks.get(i) {
        if t.is_punct('#') {
            let (derives, marks_test, next) = attribute(toks, i);
            serialised |= derives;
            test |= marks_test;
            i = next;
        } else if t.is_ident("struct") || t.is_ident("enum") {
            let name = toks
                .get(i + 1)
                .filter(|n| n.kind == TokKind::Ident)
                .map_or("?", |n| n.text.as_str());
            // The body is the first `{..}` or `(..)` group; `struct X;` has none.
            let mut open = i + 1;
            while toks
                .get(open)
                .is_some_and(|t| !(t.is_punct('{') || t.is_punct('(') || t.is_punct(';')))
            {
                open += 1;
            }
            let end = match toks.get(open) {
                Some(t) if t.is_punct('{') => skip_group(toks, open, '{', '}'),
                Some(t) if t.is_punct('(') => skip_group(toks, open, '(', ')'),
                _ => open + 1,
            };
            if serialised && !test {
                flag_byte_vecs(file, toks.get(open..end).unwrap_or(&[]), name, findings);
            }
            (serialised, test) = (false, false);
            i = end;
        } else if t.is_punct('{') {
            // A module, function or impl body: test code is skipped whole,
            // anything else is scanned for nested items.
            i = if test {
                skip_group(toks, i, '{', '}')
            } else {
                i + 1
            };
            (serialised, test) = (false, false);
        } else {
            if t.is_punct(';') {
                (serialised, test) = (false, false);
            }
            i += 1;
        }
    }
}

/// Report every `Vec < u8 >` token run in `body`.
fn flag_byte_vecs(file: &FileModel, body: &[Tok], ty: &str, findings: &mut Vec<Finding>) {
    for w in body.windows(4) {
        if let [vec, lt, elem, gt] = w {
            if vec.is_ident("Vec") && lt.is_punct('<') && elem.is_ident("u8") && gt.is_punct('>') {
                findings.push(Finding::new(
                    Rule::BulkBytes,
                    &file.rel,
                    vec.line,
                    format!(
                        "`Vec<u8>` in a field of `{ty}`, which derives Serialize: the \
                         codec writes it one tagged integer per byte (2-3x the size, \
                         one visitor call per byte back); use codec::ByteBuf, which \
                         crosses as one raw run and converts from/into Vec<u8> for free"
                    ),
                ));
            }
        }
    }
}
