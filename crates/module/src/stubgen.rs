//! Client-side stub generation (§4.2, Figure 5).
//!
//! "Most functions in the libraries targeted for SecModule conversion
//! resolved to calling autogenerated assembly stub function\[s\]."  A stub
//! pushes the `(moduleID, funcID)` pair that names the protected function
//! and relays to the kernel's `sys_smod_call()` (Figure 3, step 1→2).
//! Because the real stub manipulates the stack frame it cannot be written
//! in C; here we generate the stub *descriptors*: what the runtime needs to
//! dispatch.

use crate::image::{ModuleImage, ModuleVersion};
use serde::{Deserialize, Serialize};

/// A function identifier within a module (dense ordinal, stable across
/// rebuilds of the same image).
pub type FuncId = u32;

/// A client-side stub descriptor for one protected function.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientStub {
    /// The function identifier pushed by the stub.
    pub func_id: FuncId,
    /// The exported symbol name the stub replaces.
    pub symbol: String,
    /// Offset of the real function inside the module text (handle side).
    pub text_offset: usize,
    /// Size of the real function in bytes.
    pub text_size: usize,
}

/// The stub table for a module: what the custom `crt0`/link step embeds in
/// the client executable.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StubTable {
    /// Module name.
    pub module_name: String,
    /// Module version.
    pub module_version: ModuleVersion,
    /// One stub per exported function, ordered by `func_id`.
    pub stubs: Vec<ClientStub>,
}

impl StubTable {
    /// Generate the stub table for an image: one stub per exported function
    /// symbol, with `func_id`s assigned densely in text order.
    pub fn generate(image: &ModuleImage) -> StubTable {
        let stubs = image
            .exported_functions()
            .iter()
            .enumerate()
            .map(|(i, sym)| ClientStub {
                func_id: i as FuncId,
                symbol: sym.name.clone(),
                text_offset: sym.offset,
                text_size: sym.size,
            })
            .collect();
        StubTable {
            module_name: image.name.clone(),
            module_version: image.version,
            stubs,
        }
    }

    /// Number of stubs.
    pub fn len(&self) -> usize {
        self.stubs.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.stubs.is_empty()
    }

    /// Find a stub by symbol name.
    pub fn by_name(&self, symbol: &str) -> Option<&ClientStub> {
        self.stubs.iter().find(|s| s.symbol == symbol)
    }

    /// Find a stub by function id.
    pub fn by_id(&self, func_id: FuncId) -> Option<&ClientStub> {
        self.stubs
            .get(func_id as usize)
            .filter(|s| s.func_id == func_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    #[test]
    fn generates_one_stub_per_exported_function() {
        let img = ModuleBuilder::libc_like();
        let table = StubTable::generate(&img);
        assert_eq!(table.module_name, "libc");
        assert_eq!(table.len(), img.exported_functions().len());
        assert!(!table.is_empty());
        // Local helpers get no stub.
        assert!(table.by_name("imalloc").is_none());
        assert!(table.by_name("malloc").is_some());
    }

    #[test]
    fn func_ids_are_dense_and_stable() {
        let img = ModuleBuilder::libc_like();
        let t1 = StubTable::generate(&img);
        let t2 = StubTable::generate(&img);
        assert_eq!(t1, t2, "stub generation must be deterministic");
        for (i, stub) in t1.stubs.iter().enumerate() {
            assert_eq!(stub.func_id, i as u32);
            assert_eq!(t1.by_id(stub.func_id), Some(stub));
        }
        assert!(t1.by_id(t1.len() as u32).is_none());
    }

    #[test]
    fn stub_offsets_match_symbols() {
        let img = ModuleBuilder::libc_like();
        let table = StubTable::generate(&img);
        for stub in &table.stubs {
            let sym = img.symbol(&stub.symbol).unwrap();
            assert_eq!(stub.text_offset, sym.offset);
            assert_eq!(stub.text_size, sym.size);
        }
    }
}
