//! Public-API surface snapshot for the `sectopk-core` facade.
//!
//! The `Session` / `QueryBuilder` / `SecTopKError` surface is the contract every test,
//! bench, example and downstream consumer builds against.  This test extracts the
//! public item declarations of the facade's source files and compares them against a
//! committed snapshot, so any change to the surface — a removed method, a renamed
//! variant, a signature change — fails loudly in review instead of slipping in
//! silently.
//!
//! To re-bless after an *intentional* surface change:
//!
//! ```text
//! SECTOPK_BLESS=1 cargo test --test api_surface
//! ```
//!
//! and audit the diff of `tests/golden/api_surface.txt` like any other contract change.

use std::fmt::Write as _;
use std::path::Path;

/// The facade source files whose public declarations form the tracked surface.
const FACADE_FILES: &[&str] = &[
    "crates/core/src/lib.rs",
    "crates/core/src/builder.rs",
    "crates/core/src/error.rs",
    "crates/core/src/planner.rs",
    "crates/core/src/session.rs",
    "crates/core/src/scheme.rs",
    "crates/core/src/query.rs",
    "crates/core/src/results.rs",
    "crates/core/src/leakage.rs",
    "crates/core/src/join.rs",
    "crates/protocols/src/tcp.rs",
];

/// True when `line` (already trimmed) declares a public item we track.
fn is_public_declaration(line: &str) -> bool {
    for prefix in [
        "pub fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub type ",
        "pub use ",
        "pub mod ",
        "pub const ",
    ] {
        if line.starts_with(prefix) {
            return true;
        }
    }
    false
}

/// Extract the tracked declarations of one file: one line per item, signatures joined
/// until their opening brace / semicolon so multi-line `fn` signatures stay one entry.
fn extract_surface(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut lines = source.lines().peekable();
    let mut in_test_module = false;
    let mut brace_depth: i64 = 0;
    while let Some(raw) = lines.next() {
        let line = raw.trim();
        if line.starts_with("#[cfg(test)]") {
            in_test_module = true;
            brace_depth = 0;
        }
        if in_test_module {
            brace_depth += line.matches('{').count() as i64;
            brace_depth -= line.matches('}').count() as i64;
            if brace_depth <= 0 && line.contains('}') {
                in_test_module = false;
            }
            continue;
        }
        if !is_public_declaration(line) {
            continue;
        }
        // Join continuation lines until the declaration closes.  `pub use` braces are
        // item lists (part of the surface), so those run to their semicolon; other
        // declarations stop at the body opener.
        let is_use = line.starts_with("pub use ");
        let mut declaration = line.to_string();
        let closed = |d: &str| {
            if is_use {
                d.contains(';')
            } else {
                d.contains('{') || d.contains(';') || d.ends_with(')')
            }
        };
        while !closed(&declaration) {
            match lines.next() {
                Some(next) => {
                    declaration.push(' ');
                    declaration.push_str(next.trim());
                }
                None => break,
            }
        }
        // Normalise: cut the body opener (except for `pub use` item lists) and collapse
        // whitespace.
        let declaration = if is_use {
            declaration.trim().to_string()
        } else {
            declaration.split('{').next().unwrap_or(&declaration).trim().to_string()
        };
        let declaration = declaration.split_whitespace().collect::<Vec<_>>().join(" ");
        out.push(declaration);
    }
    out
}

fn render_surface() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut rendered = String::from(
        "# Public API surface of the sectopk-core facade.\n\
         # Regenerate with: SECTOPK_BLESS=1 cargo test --test api_surface\n",
    );
    for file in FACADE_FILES {
        let source = std::fs::read_to_string(root.join(file))
            .unwrap_or_else(|e| panic!("facade file {file} must exist: {e}"));
        writeln!(rendered, "\n[{file}]").unwrap();
        for item in extract_surface(&source) {
            writeln!(rendered, "{item}").unwrap();
        }
    }
    rendered
}

#[test]
fn facade_surface_matches_the_committed_snapshot() {
    let rendered = render_surface();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/api_surface.txt");
    if std::env::var("SECTOPK_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &rendered).expect("write surface snapshot");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing API surface snapshot {} ({e}); run with SECTOPK_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        committed, rendered,
        "the sectopk-core public API surface changed — if this is intentional, re-bless \
         with SECTOPK_BLESS=1 and audit the diff of tests/golden/api_surface.txt"
    );
}

#[test]
fn the_facade_exports_the_one_front_door() {
    // Compile-time spot checks that the contract items exist with the expected shapes
    // (the snapshot catches renames; this catches accidental re-export removal).
    use sectopk_core::{DataOwner, Query, Session};

    fn assert_session_object_safe(_: &mut dyn Session) {}
    let _ = assert_session_object_safe;

    let _builder_entry: fn(usize) -> sectopk_core::QueryBuilder = Query::top_k;
    let _connect = DataOwner::connect;
    let _outsource = DataOwner::outsource::<rand::rngs::StdRng>;
    let _execute = <sectopk_core::DirectSession as Session>::execute;
    let _plan: fn(&sectopk_core::PlannerInputs) -> sectopk_core::PlanDecision = sectopk_core::plan;
}
