//! Workspace facade for the SecModule baseline reproduction.
//!
//! Re-exports the ten member crates under one roof so downstream code
//! (and the integration tests / examples in this package) can reach any
//! layer through a single dependency. The interesting code lives in the
//! members; see the workspace README for the layout and the paper mapping.

pub use secmod_async as r#async;
pub use secmod_core as core;
pub use secmod_crypto as crypto;
pub use secmod_gate as gate;
pub use secmod_kernel as kernel;
pub use secmod_module as module;
pub use secmod_obs as obs;
pub use secmod_policy as policy;
pub use secmod_qos as qos;
pub use secmod_ring as ring;
pub use secmod_rpc as rpc;
pub use secmod_vm as vm;

pub use secmod_kernel::dispatch::{DispatchError, DispatchOutcome};

/// Convenience prelude mirroring `secmod_core::prelude`, plus the outcome
/// vocabulary the ring-based frontends share.
pub mod prelude {
    pub use secmod_core::prelude::*;
    pub use secmod_kernel::dispatch::{DispatchError, DispatchOutcome};
}
