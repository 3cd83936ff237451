//! # secmod-core
//!
//! The SecModule framework: session-managed, access-controlled libraries.
//!
//! This crate is the public face of the reproduction.  It glues the
//! substrates together:
//!
//! * [`secure_module`] — define a protected module: its functions (as Rust
//!   bodies standing in for the library text), its synthetic image (built
//!   with the `secmod-module` toolchain), its access policy, and the key
//!   that seals its text.
//! * [`marshal`] — argument marshalling in the "traditional stack passing
//!   mechanism" the paper describes.
//! * [`stack`] — an explicit model of the Figure 3 stack manipulations
//!   performed by the client stub, the kernel, and `smod_stub_receive()`.
//! * [`sim`] — the simulated backend: a [`secmod_kernel::Kernel`] with real
//!   processes, forced address-space sharing, kernel-mediated dispatch and
//!   a calibrated cost model.  Deterministic; used by most tests and the
//!   simulated Figure 8 harness.
//! * [`native`] — the wall-clock crossings into that same kernel: the
//!   host's `getpid()` baseline, and [`native::CrossThread`], a depth-1
//!   round trip through a one-drainer dispatch plane. With `sys_smod_call`
//!   run in-thread, they time Figure 8's protected call on the host clock;
//!   every crossing ends in the kernel's one call path.
//! * [`libc_retrofit`] — the paper's flagship use-case: a `malloc`-style
//!   allocator, `strlen` and `memcpy` living *inside* a SecModule and
//!   operating directly on the client's heap through the shared pages.
//!
//! ## Quick start
//!
//! ```
//! use secmod_core::prelude::*;
//!
//! // Define a protected module with an "alice may call anything" policy.
//! let module = SecureModuleBuilder::new("libdemo", 1)
//!     .function("double", |_ctx, args| {
//!         let v = u64::from_le_bytes(args[..8].try_into().unwrap());
//!         Ok((v * 2).to_le_bytes().to_vec())
//!     })
//!     .allow_credential(b"alice-key")
//!     .build()
//!     .unwrap();
//!
//! // Boot a simulated world, register the module, start a client session.
//! let mut world = SimWorld::new();
//! let module_id = world.install(&module).unwrap();
//! let client = world.spawn_client("demo-app", Credential::user(1000, 100)
//!     .with_smod_credential("libdemo", b"alice-key")).unwrap();
//! let session = world.connect(client, "libdemo", 0).unwrap();
//!
//! // Call through the protected dispatch path.
//! let reply = world.call(client, "double", &21u64.to_le_bytes()).unwrap();
//! assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 42);
//! assert_eq!(world.kernel.session_of(client).unwrap().id, session);
//! let _ = module_id;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod libc_retrofit;
pub mod marshal;
pub mod native;
pub mod secure_module;
pub mod sim;
pub mod stack;

pub use error::SmodError;
pub use secure_module::{SecureModule, SecureModuleBuilder};
pub use sim::SimWorld;

/// Convenience re-exports for applications.
pub mod prelude {
    pub use crate::error::SmodError;
    pub use crate::libc_retrofit::SmodLibc;
    pub use crate::marshal::{ArgReader, ArgWriter};
    pub use crate::secure_module::{SecureModule, SecureModuleBuilder};
    pub use crate::sim::SimWorld;
    pub use secmod_kernel::{Credential, Pid};
    pub use secmod_module::ModuleId;
}

/// Result alias for framework operations.
pub type Result<T> = std::result::Result<T, SmodError>;
