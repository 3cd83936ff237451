//! Construction of synthetic module images.
//!
//! Real SecModule operated on compiled OpenBSD libraries.  Here we generate
//! images with a tiny synthetic "instruction encoding" that nevertheless has
//! the two properties the toolchain cares about: function bodies occupy real
//! byte ranges in `.text`, and call/data-reference sites occupy *relocation
//! fields* that the link editor patches and the selective encryptor must
//! skip.
//!
//! Synthetic encoding (loosely i386-flavoured):
//!
//! ```text
//! 55 89 E5            prologue (push %ebp; mov %esp,%ebp)
//! <body bytes>        deterministic filler derived from the function name
//! E8 xx xx xx xx      call <rel32>      — one per listed callee   (Rel32)
//! A1 xx xx xx xx      mov  <abs32>,%eax — one per listed data ref (Abs32)
//! C9 C3               epilogue (leave; ret)
//! ```

use crate::image::ModuleImage;
use crate::reloc::Relocation;
use crate::section::SectionKind;
use crate::symbol::Symbol;
use crate::verify;
use crate::Result;
use secmod_crypto::sha256::Sha256;

/// Builder for [`ModuleImage`]s.
#[derive(Debug)]
pub struct ModuleBuilder {
    image: ModuleImage,
}

/// Description of one function to synthesise.
#[derive(Clone, Debug, Default)]
pub struct FunctionSpec {
    /// Exported symbol name.
    pub name: String,
    /// Number of filler body bytes (before calls/data refs).
    pub body_bytes: usize,
    /// Names of symbols this function calls (each becomes a `Rel32`
    /// relocation site).
    pub calls: Vec<String>,
    /// Names of data objects this function reads (each becomes an `Abs32`
    /// relocation site).
    pub data_refs: Vec<String>,
    /// Whether the symbol is exported (local helpers are not).
    pub exported: bool,
}

impl FunctionSpec {
    /// A simple exported function with a given body size.
    pub fn new(name: &str, body_bytes: usize) -> FunctionSpec {
        FunctionSpec {
            name: name.to_string(),
            body_bytes,
            calls: Vec::new(),
            data_refs: Vec::new(),
            exported: true,
        }
    }

    /// Add a call site.
    pub fn calling(mut self, callee: &str) -> FunctionSpec {
        self.calls.push(callee.to_string());
        self
    }

    /// Add a data reference.
    pub fn referencing(mut self, object: &str) -> FunctionSpec {
        self.data_refs.push(object.to_string());
        self
    }

    /// Mark the function as local (not exported).
    pub fn local(mut self) -> FunctionSpec {
        self.exported = false;
        self
    }
}

impl ModuleBuilder {
    /// Start building a module.
    pub fn new(name: &str, version: u32) -> ModuleBuilder {
        ModuleBuilder {
            image: ModuleImage::empty(name, version),
        }
    }

    /// Add a function according to `spec`.
    pub fn add_function(&mut self, spec: FunctionSpec) -> &mut Self {
        let text = &mut self.image.text;
        text.align_to(16);
        let start = text.len();

        // Prologue.
        text.append(&[0x55, 0x89, 0xE5]);

        // Deterministic filler body derived from the function name so that
        // different functions have different (but reproducible) bytes.
        let digest = Sha256::digest(spec.name.as_bytes());
        let mut body = Vec::with_capacity(spec.body_bytes);
        while body.len() < spec.body_bytes {
            let take = usize::min(digest.len(), spec.body_bytes - body.len());
            body.extend_from_slice(&digest[..take]);
        }
        text.append(&body);

        // Call sites.
        for callee in &spec.calls {
            text.append(&[0xE8]);
            let field_offset = text.len();
            text.append(&[0u8; 4]);
            self.image
                .relocations
                .push(Relocation::rel32(SectionKind::Text, field_offset, callee));
        }

        // Data references.
        for object in &spec.data_refs {
            text.append(&[0xA1]);
            let field_offset = text.len();
            text.append(&[0u8; 4]);
            self.image
                .relocations
                .push(Relocation::abs32(SectionKind::Text, field_offset, object));
        }

        // Epilogue.
        text.append(&[0xC9, 0xC3]);
        let size = text.len() - start;

        let mut sym = Symbol::function(&spec.name, start, size);
        sym.global = spec.exported;
        self.image.symbols.push(sym);
        self
    }

    /// Add an initialised data object to `.data`.
    pub fn add_data_object(&mut self, name: &str, bytes: &[u8]) -> &mut Self {
        self.image.data.align_to(4);
        let offset = self.image.data.append(bytes);
        self.image
            .symbols
            .push(Symbol::object(name, SectionKind::Data, offset, bytes.len()));
        self
    }

    /// Add a read-only object to `.rodata`.
    fn add_rodata_object(&mut self, name: &str, bytes: &[u8]) -> &mut Self {
        self.image.rodata.align_to(4);
        let offset = self.image.rodata.append(bytes);
        self.image.symbols.push(Symbol::object(
            name,
            SectionKind::RoData,
            offset,
            bytes.len(),
        ));
        self
    }

    /// Finish building, validating the image structure.
    ///
    /// `allow_extern_relocs` permits relocations against symbols not defined
    /// in the image (resolved by the linker from an external symbol table).
    pub fn build(self, allow_extern_relocs: bool) -> Result<ModuleImage> {
        verify::check(&self.image, allow_extern_relocs)?;
        Ok(self.image)
    }

    /// Build the "SecModule conversion of libc" used throughout the paper's
    /// implementation section: a module exposing `malloc`, `free`,
    /// `getpid`, `strlen`, `memcpy` and the benchmark's `testincr`, with
    /// realistic internal cross-calls and a data object.
    pub fn libc_like() -> ModuleImage {
        let mut b = ModuleBuilder::new("libc", 36); // OpenBSD 3.6's libc major
        b.add_data_object("malloc_pagepool", &[0u8; 64])
            .add_rodata_object("version_string", b"SecModule libc 0.1\0")
            .add_function(
                FunctionSpec::new("malloc", 96)
                    .calling("imalloc")
                    .referencing("malloc_pagepool"),
            )
            .add_function(
                FunctionSpec::new("free", 64)
                    .calling("ifree")
                    .referencing("malloc_pagepool"),
            )
            .add_function(FunctionSpec::new("imalloc", 128).local())
            .add_function(FunctionSpec::new("ifree", 96).local())
            .add_function(FunctionSpec::new("getpid", 16))
            .add_function(FunctionSpec::new("strlen", 48))
            .add_function(FunctionSpec::new("memcpy", 80))
            .add_function(FunctionSpec::new("testincr", 24));
        b.build(false)
            .expect("libc_like image is structurally valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolKind;

    #[test]
    fn builds_functions_with_relocations() {
        let mut b = ModuleBuilder::new("m", 1);
        b.add_data_object("counter", &[0u8; 8]);
        b.add_function(
            FunctionSpec::new("f", 32)
                .calling("g")
                .referencing("counter"),
        );
        b.add_function(FunctionSpec::new("g", 16));
        let img = b.build(false).unwrap();

        let f = img.symbol("f").unwrap();
        let g = img.symbol("g").unwrap();
        assert_eq!(f.kind, SymbolKind::Function);
        assert!(f.size >= 32 + 3 + 2 + 10);
        assert!(g.offset > f.offset);
        assert_eq!(img.relocations.len(), 2);
        // Every relocation field lies inside f's byte range.
        for r in &img.relocations {
            assert!(r.offset >= f.offset && r.offset + 4 <= f.offset + f.size);
        }
    }

    #[test]
    fn function_bodies_are_deterministic_and_distinct() {
        let build = || {
            let mut b = ModuleBuilder::new("m", 1);
            b.add_function(FunctionSpec::new("alpha", 40));
            b.add_function(FunctionSpec::new("beta", 40));
            b.build(false).unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a.text.data, b.text.data, "builds must be reproducible");
        let alpha = a.symbol("alpha").unwrap();
        let beta = a.symbol("beta").unwrap();
        assert_ne!(
            a.text.data[alpha.range()],
            a.text.data[beta.range()],
            "different functions get different bodies"
        );
    }

    #[test]
    fn undefined_call_target_rejected_unless_extern_allowed() {
        let mut b = ModuleBuilder::new("m", 1);
        b.add_function(FunctionSpec::new("f", 8).calling("does_not_exist"));
        assert!(matches!(
            ModuleBuilder {
                image: b.image.clone()
            }
            .build(false),
            Err(crate::ModuleError::UnknownSymbol { .. })
        ));
        assert!(ModuleBuilder { image: b.image }.build(true).is_ok());
    }

    #[test]
    fn duplicate_symbols_rejected() {
        let mut b = ModuleBuilder::new("m", 1);
        b.add_function(FunctionSpec::new("dup", 8));
        b.add_function(FunctionSpec::new("dup", 8));
        assert!(matches!(
            b.build(false),
            Err(crate::ModuleError::DuplicateSymbol { .. })
        ));
    }

    #[test]
    fn libc_like_module_shape() {
        let img = ModuleBuilder::libc_like();
        assert_eq!(img.name, "libc");
        let exported: Vec<&str> = img
            .exported_functions()
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert!(exported.contains(&"malloc"));
        assert!(exported.contains(&"testincr"));
        assert!(exported.contains(&"getpid"));
        // Local helpers are not exported.
        assert!(!exported.contains(&"imalloc"));
        // Functions are 16-byte aligned.
        for f in img.exported_functions() {
            assert_eq!(f.offset % 16, 0, "{} not aligned", f.name);
        }
        assert!(img.relocations.len() >= 4);
        assert!(!img.text.is_empty());
    }
}
