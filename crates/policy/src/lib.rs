//! # secmod-policy
//!
//! A KeyNote-flavoured trust-management engine for SecModule access control.
//!
//! The SecModule paper frames library access control as a trust-management
//! problem (citing Blaze et al.'s KeyNote, RFC 2704) and states that the
//! original design intended to use KeyNote policies as the definition
//! language; the published prototype measures only the trivial
//! "always allowed" policy and notes that "if we need to evaluate more
//! complex policy statements, we can expect a corresponding slowdown in
//! proportion to the complexity of the required access control check"
//! (§5).  This crate supplies the policy engine so that claim can actually
//! be measured:
//!
//! * [`principal`] — named principals with key material for signing
//!   assertions.
//! * [`attr`] — typed action attributes (the "action environment"), owned
//!   ([`Environment`]) or answered by name from borrowed fields
//!   ([`Attributes`]).
//! * [`lexer`] / [`ast`] / [`parser`] / [`eval`] — a small condition
//!   expression language (comparisons, boolean connectives, string and
//!   numeric literals) evaluated against the action environment.
//! * [`assertion`] — KeyNote-style assertions: an authorizer delegates to a
//!   licensee expression under conditions, optionally signed.
//! * [`engine`] — the compliance checker: given a set of requester
//!   principals and an action environment, decide whether the policy root
//!   authorises the action (delegation closure over assertions, computed
//!   as a worklist over a licensee index).
//! * [`unix`] — the coarse uid/gid baseline the paper contrasts ("the
//!   current UNIX methods for access control is purely binary").
//! * [`audit`] — an audit trail of decisions for the examples and tests.
//! * [`cache`] / [`gateway`] — the concurrent decision layer: a sharded,
//!   epoch-invalidated decision cache and the [`Gateway`] fronting a
//!   [`PolicyEngine`] with it. They live beside the engine so the kernel
//!   can embed one gateway per registered module.
//! * [`l0`] — the thread-local L0 tier in front of the sharded cache:
//!   epoch-tagged per-thread tables whose hits touch no shared state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assertion;
pub mod ast;
pub mod attr;
pub mod audit;
pub mod cache;
pub mod engine;
pub mod eval;
pub mod gateway;
pub mod l0;
pub mod lexer;
pub mod parser;
pub mod principal;
pub mod unix;

pub use assertion::{Assertion, LicenseeExpr};
pub use attr::{AttrRef, AttrValue, Attributes, Environment};
pub use cache::{CacheConfig, CacheKey, CacheStats, DecisionCache};
pub use engine::{Decision, PolicyEngine};
pub use gateway::{AccessRequest, DecisionTier, Gateway};
pub use principal::Principal;
pub use unix::UnixPolicy;

/// Errors produced by the policy subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The condition expression could not be tokenised.
    LexError {
        /// Position (byte offset) of the offending character.
        position: usize,
        /// Description of the problem.
        message: String,
    },
    /// The condition expression could not be parsed.
    ParseError {
        /// Description of the problem.
        message: String,
    },
    /// Evaluation failed (type mismatch, unknown attribute in strict mode…).
    EvalError {
        /// Description of the problem.
        message: String,
    },
    /// An assertion signature did not verify.
    BadSignature {
        /// The authorizer whose signature failed.
        authorizer: String,
    },
    /// The engine was asked about an unknown policy root.
    UnknownRoot,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::LexError { position, message } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            PolicyError::ParseError { message } => write!(f, "parse error: {message}"),
            PolicyError::EvalError { message } => write!(f, "evaluation error: {message}"),
            PolicyError::BadSignature { authorizer } => {
                write!(f, "bad signature on assertion by {authorizer}")
            }
            PolicyError::UnknownRoot => write!(f, "unknown policy root"),
        }
    }
}

impl std::error::Error for PolicyError {}

/// Result alias for policy operations.
pub type Result<T> = std::result::Result<T, PolicyError>;
