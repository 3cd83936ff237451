//! The `objdump -t … | grep ' F '` analogue (§4.2).
//!
//! The paper's stub-generation workflow started "with the output of
//! `objdump -t /usr/lib/libc.a | grep ' F '`" because lines flagged `F` are
//! guaranteed to be functions.  This module renders a symbol table in that
//! format and provides the grep.

use crate::image::ModuleImage;
use crate::symbol::Symbol;

/// Render one symbol in `objdump -t` style:
/// `00000120 g     F .text  00000040 malloc`.
fn format_symbol(sym: &Symbol) -> String {
    format!(
        "{:08x} {}     {} {:<7} {:08x} {}",
        sym.offset,
        if sym.global { 'g' } else { 'l' },
        sym.kind.objdump_flag(),
        sym.section.name(),
        sym.size,
        sym.name
    )
}

/// Render the whole symbol table (`objdump -t`).
pub fn objdump_t(image: &ModuleImage) -> Vec<String> {
    let mut lines: Vec<String> = image.symbols.iter().map(format_symbol).collect();
    lines.sort();
    lines
}

/// The `grep ' F '` step: keep only function symbols.
pub fn grep_functions(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| l.contains(" F "))
        .cloned()
        .collect()
}

/// The full pipeline: the names of all *global* function symbols, which is
/// exactly the set of symbols needing client-side stubs.
pub fn stub_candidates(image: &ModuleImage) -> Vec<String> {
    image
        .exported_functions()
        .iter()
        .map(|s| s.name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::section::SectionKind;

    #[test]
    fn format_matches_objdump_conventions() {
        let s = Symbol::function("malloc", 0x120, 0x40);
        let line = format_symbol(&s);
        assert!(line.starts_with("00000120 g"));
        assert!(line.contains(" F "));
        assert!(line.contains(".text"));
        assert!(line.ends_with("malloc"));

        let o = Symbol::object("tbl", SectionKind::Data, 8, 16).local();
        let line = format_symbol(&o);
        assert!(line.contains(" O "));
        assert!(line.contains(" l "));
        assert!(line.contains(".data"));
    }

    #[test]
    fn grep_f_selects_only_functions() {
        let img = ModuleBuilder::libc_like();
        let all = objdump_t(&img);
        let funcs = grep_functions(&all);
        assert!(funcs.len() < all.len(), "data objects must be filtered out");
        assert!(funcs.iter().all(|l| l.contains(" F ")));
        // The functions the paper names are present.
        // The symbol name is a line's last field.
        let names: Vec<&str> = funcs
            .iter()
            .filter_map(|l| l.split_whitespace().last())
            .collect();
        assert!(names.contains(&"malloc"));
        assert!(names.contains(&"getpid"));
        assert!(names.contains(&"testincr"));
        // Local functions appear in objdump output too (with the `l` flag) —
        // the paper's pipeline filters them later when stubs are generated.
        assert!(names.contains(&"imalloc"));
    }

    #[test]
    fn stub_candidates_are_exported_functions_only() {
        let img = ModuleBuilder::libc_like();
        let candidates = stub_candidates(&img);
        assert!(candidates.contains(&"malloc".to_string()));
        assert!(!candidates.contains(&"imalloc".to_string()));
        assert!(!candidates.contains(&"malloc_pagepool".to_string()));
    }
}
