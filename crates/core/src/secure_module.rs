//! Defining a SecModule: functions, policy, key material and the synthetic
//! image built by the toolchain.

use crate::{Result, SmodError};
use secmod_crypto::rng::HashDrbg;
use secmod_kernel::smod::ModuleKeyDelivery;
use secmod_kernel::smodreg::{FunctionTable, HandleCtx};
use secmod_kernel::SysResult;
use secmod_module::builder::{FunctionSpec, ModuleBuilder};
use secmod_module::{SmodPackage, StubTable};
use secmod_policy::assertion::{Assertion, LicenseeExpr};
use secmod_policy::{PolicyEngine, Principal};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The body of a protected function, as registered by the module author.
pub type BodyFn = Arc<dyn Fn(&mut HandleCtx<'_>, &[u8]) -> SysResult<Vec<u8>> + Send + Sync>;

/// A fully built SecModule, ready to install into a [`crate::sim::SimWorld`],
/// whose kernel both the simulated and the wall-clock rows call.
pub struct SecureModule {
    /// Module name.
    pub name: String,
    /// Module version.
    pub version: u32,
    /// The sealed registration package (text selectively encrypted).
    pub package: SmodPackage,
    /// The stub table (client side).
    pub stub_table: StubTable,
    /// Function bodies keyed by symbol name.
    pub bodies: BTreeMap<String, BodyFn>,
    /// The access policy.
    pub policy: PolicyEngine,
    /// Raw module key (held by the "toolchain"; handed to the kernel at
    /// registration and never to clients).
    pub module_key: Vec<u8>,
    /// CTR nonce used when sealing.
    pub nonce: [u8; 8],
    /// MAC key protecting the registration package.
    pub mac_key: Vec<u8>,
}

impl std::fmt::Debug for SecureModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureModule")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("functions", &self.bodies.len())
            .field("policy_complexity", &self.policy.total_complexity())
            .finish()
    }
}

impl SecureModule {
    /// Build the kernel-facing [`FunctionTable`] (func-id keyed) from the
    /// name-keyed bodies.
    pub fn function_table(&self) -> FunctionTable {
        let mut table = FunctionTable::new();
        for (name, body) in &self.bodies {
            if let Some(stub) = self.stub_table.by_name(name) {
                let body = body.clone();
                table.register(stub.func_id, move |ctx, args| body(ctx, args));
            }
        }
        table
    }

    /// The key-delivery descriptor handed to `sys_smod_add`.
    pub fn key_delivery(&self) -> ModuleKeyDelivery {
        ModuleKeyDelivery::Raw {
            key: self.module_key.clone(),
            nonce: self.nonce,
        }
    }

    /// The function id for a symbol, if it exists.
    pub fn func_id(&self, symbol: &str) -> Option<u32> {
        self.stub_table.by_name(symbol).map(|s| s.func_id)
    }
}

/// Builder for [`SecureModule`]s.
pub struct SecureModuleBuilder {
    name: String,
    version: u32,
    functions: Vec<(String, usize, BodyFn)>,
    policy: PolicyEngine,
    policy_assertions: usize,
    data_objects: Vec<(String, Vec<u8>)>,
    seed: Vec<u8>,
}

impl SecureModuleBuilder {
    /// Start defining a module.
    pub fn new(name: &str, version: u32) -> SecureModuleBuilder {
        SecureModuleBuilder {
            name: name.to_string(),
            version,
            functions: Vec::new(),
            policy: PolicyEngine::new(),
            policy_assertions: 0,
            data_objects: Vec::new(),
            seed: format!("secmod:{name}:{version}").into_bytes(),
        }
    }

    /// Add a protected function with a default synthetic body size.
    pub fn function<F>(self, name: &str, body: F) -> SecureModuleBuilder
    where
        F: Fn(&mut HandleCtx<'_>, &[u8]) -> SysResult<Vec<u8>> + Send + Sync + 'static,
    {
        self.function_sized(name, 64, body)
    }

    /// Add a protected function, specifying the synthetic text size (affects
    /// how many bytes the selective encryptor protects — useful for the
    /// encryption-overhead ablation).
    pub fn function_sized<F>(
        mut self,
        name: &str,
        text_bytes: usize,
        body: F,
    ) -> SecureModuleBuilder
    where
        F: Fn(&mut HandleCtx<'_>, &[u8]) -> SysResult<Vec<u8>> + Send + Sync + 'static,
    {
        self.functions
            .push((name.to_string(), text_bytes, Arc::new(body)));
        self
    }

    /// Add a data object to the module image.
    pub fn data_object(mut self, name: &str, bytes: &[u8]) -> SecureModuleBuilder {
        self.data_objects.push((name.to_string(), bytes.to_vec()));
        self
    }

    /// Allow holders of this credential key material to call *any* function
    /// of the module (the paper's measured "always allowed" policy, bound to
    /// a principal).
    pub fn allow_credential(self, credential_key: &[u8]) -> SecureModuleBuilder {
        self.allow_credential_if(credential_key, "")
    }

    /// Allow holders of this credential to call the module when the given
    /// condition (over `module`, `function`, `uid`, `app_domain`,
    /// `module_version`) holds.
    pub fn allow_credential_if(
        mut self,
        credential_key: &[u8],
        condition: &str,
    ) -> SecureModuleBuilder {
        let principal = Principal::from_key(
            &format!("licensee{}", self.policy_assertions),
            credential_key,
        );
        let assertion = Assertion::policy(LicenseeExpr::Single(principal), condition)
            .expect("condition must parse");
        self.policy
            .add_assertion(assertion)
            .expect("policy assertions are unsigned");
        self.policy_assertions += 1;
        self
    }

    /// Install a fully custom policy engine (replaces any `allow_credential`
    /// grants added so far).
    pub fn with_policy(mut self, policy: PolicyEngine) -> SecureModuleBuilder {
        self.policy = policy;
        self
    }

    /// Build the module: synthesise the image with the toolchain, seal it,
    /// and bundle the bodies and policy.
    pub fn build(self) -> Result<SecureModule> {
        if self.functions.is_empty() {
            return Err(SmodError::UnknownFunction(
                "a SecModule needs at least one function".to_string(),
            ));
        }
        let mut rng = HashDrbg::new(&self.seed);
        let module_key = rng.bytes(16);
        let mut nonce = [0u8; 8];
        nonce.copy_from_slice(&rng.bytes(8));
        let mac_key = rng.bytes(32);

        let mut builder = ModuleBuilder::new(&self.name, self.version);
        for (name, bytes) in &self.data_objects {
            builder.add_data_object(name, bytes);
        }
        for (name, size, _) in &self.functions {
            let mut spec = FunctionSpec::new(name, *size);
            if let Some((obj, _)) = self.data_objects.first() {
                spec = spec.referencing(obj);
            }
            builder.add_function(spec);
        }
        let image = builder.build(false)?;
        let stub_table = StubTable::generate(&image);

        let encryptor = secmod_crypto::SelectiveEncryptor::new(&module_key, nonce)?;
        let package = SmodPackage::seal(&image, &encryptor, &mac_key)?;

        let mut bodies = BTreeMap::new();
        for (name, _, body) in self.functions {
            bodies.insert(name, body);
        }

        Ok(SecureModule {
            name: self.name,
            version: self.version,
            package,
            stub_table,
            bodies,
            policy: self.policy,
            module_key,
            nonce,
            mac_key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_module() -> SecureModule {
        SecureModuleBuilder::new("libdemo", 3)
            .data_object("state", &[0u8; 16])
            .function("incr", |_ctx, args| {
                let v = u64::from_le_bytes(args[..8].try_into().unwrap());
                Ok((v + 1).to_le_bytes().to_vec())
            })
            .function("noop", |_ctx, _args| Ok(Vec::new()))
            .allow_credential(b"alice")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_consistent_module() {
        let m = demo_module();
        assert_eq!(m.name, "libdemo");
        assert_eq!(m.version, 3);
        assert_eq!(m.stub_table.len(), 2);
        assert_eq!(m.bodies.len(), 2);
        assert!(m.func_id("incr").is_some());
        assert!(m.func_id("nothere").is_none());
        assert!(m.package.encrypted);
        assert!(m.package.protected_text_bytes() > 0);
        assert_eq!(m.policy.len(), 1);
        let table = m.function_table();
        assert_eq!(table.len(), 2);
        assert!(matches!(m.key_delivery(), ModuleKeyDelivery::Raw { .. }));
        assert!(format!("{m:?}").contains("libdemo"));
    }

    #[test]
    fn empty_module_is_rejected() {
        assert!(SecureModuleBuilder::new("empty", 1)
            .allow_credential(b"x")
            .build()
            .is_err());
    }

    #[test]
    fn builds_are_deterministic_per_name_version() {
        let a = demo_module();
        let b = demo_module();
        assert_eq!(a.module_key, b.module_key);
        assert_eq!(a.package.image.text.data, b.package.image.text.data);
        let c = SecureModuleBuilder::new("libdemo", 4)
            .function("incr", |_c, a| Ok(a.to_vec()))
            .build()
            .unwrap();
        assert_ne!(a.module_key, c.module_key);
    }

    #[test]
    fn conditional_policy_is_wired_in() {
        let m = SecureModuleBuilder::new("libcond", 1)
            .function("f", |_c, _a| Ok(vec![]))
            .allow_credential_if(b"alice", "function != \"forbidden\" && uid >= 1000")
            .build()
            .unwrap();
        assert!(m.policy.total_complexity() >= 3);
    }
}
