//! The Figure 3 stack discipline, modelled explicitly.
//!
//! The paper walks through four snapshots of the shared stack during an
//! `smod_call`:
//!
//! 1. inside the client's assembly stub (`SMOD_client_malloc`): the real
//!    arguments are on the stack, and the stub pushes the
//!    `(moduleID, funcID)` pair plus duplicates of the return address and
//!    frame pointer so the kernel has a self-contained view;
//! 2. inside `sys_smod_call()`: the kernel sees the duplicated words;
//! 3. inside `smod_stub_receive()` (running on the handle's *secret* stack):
//!    the handle has popped everything above the first real argument and
//!    relays to the actual library routine, which sees a perfectly ordinary
//!    stack;
//! 4. on return, `smod_stub_receive()` restores the exact words the client
//!    stub had pushed so the client returns to the original call site.
//!
//! The model operates on a plain word vector (the shared stack grows toward
//! lower indices in a real machine; a `Vec` push/pop is equivalent for the
//! discipline being checked).

use crate::{Result, SmodError};

/// A word on the simulated shared stack.
pub type Word = u64;

/// The shared stack with the client's frame on it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharedStack {
    words: Vec<Word>,
}

/// The extra words the client stub pushes for the kernel (Figure 3 step 1→2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StubFrame {
    /// Duplicated client frame pointer.
    pub client_fp: Word,
    /// Duplicated return address.
    pub return_address: Word,
    /// The module being called.
    pub module_id: Word,
    /// The function within the module.
    pub func_id: Word,
}

impl SharedStack {
    /// An empty stack.
    pub fn new() -> SharedStack {
        SharedStack::default()
    }

    /// Number of words on the stack.
    pub fn depth(&self) -> usize {
        self.words.len()
    }

    // surface: a step of Figure 3's stack discipline, which only tests walk
    /// Step (1a): the client pushes the real arguments for `f_i` exactly as
    /// it would for an ordinary call.
    pub fn push_args(&mut self, args: &[Word]) {
        self.words.extend_from_slice(args);
    }

    // surface: a step of Figure 3's stack discipline, which only tests walk
    /// Step (1b): the client-side assembly stub pushes the identification
    /// words the kernel needs.  Returns the stack depth *before* the stub
    /// frame, which the handle side uses to find the first real argument.
    pub fn push_stub_frame(&mut self, frame: StubFrame) -> usize {
        let base = self.words.len();
        self.words.push(frame.client_fp);
        self.words.push(frame.return_address);
        self.words.push(frame.func_id);
        self.words.push(frame.module_id);
        base
    }

    // surface: a step of Figure 3's stack discipline, which only tests walk
    /// Step (2): the kernel's view — the top four words must be the stub
    /// frame.
    pub fn kernel_view(&self) -> Result<StubFrame> {
        if self.words.len() < 4 {
            return Err(SmodError::BadArguments(
                "stack too shallow for an smod_call frame".to_string(),
            ));
        }
        let n = self.words.len();
        Ok(StubFrame {
            module_id: self.words[n - 1],
            func_id: self.words[n - 2],
            return_address: self.words[n - 3],
            client_fp: self.words[n - 4],
        })
    }

    // surface: a step of Figure 3's stack discipline, which only tests walk
    /// Step (3): `smod_stub_receive()` pops every word above the first real
    /// argument, leaving the callee with a perfectly normal argument stack.
    /// Returns the popped stub frame so it can be restored later.
    pub fn handle_pop_to_args(&mut self, stub_base: usize) -> Result<StubFrame> {
        let frame = self.kernel_view()?;
        if stub_base + 4 != self.words.len() {
            return Err(SmodError::BadArguments(format!(
                "stub frame expected at depth {stub_base}, stack is {} deep",
                self.words.len()
            )));
        }
        self.words.truncate(stub_base);
        Ok(frame)
    }

    // surface: a step of Figure 3's stack discipline, which only tests walk
    /// The callee's view of its arguments (everything from `arg_base` up).
    pub fn callee_args(&self, arg_base: usize, count: usize) -> Result<Vec<Word>> {
        if arg_base + count > self.words.len() {
            return Err(SmodError::BadArguments(
                "argument range exceeds stack".to_string(),
            ));
        }
        Ok(self.words[arg_base..arg_base + count].to_vec())
    }

    // surface: a step of Figure 3's stack discipline, which only tests walk
    /// Step (4): before returning, `smod_stub_receive()` replaces "the exact
    /// same arguments that the client stub routine had seen".
    pub fn restore_stub_frame(&mut self, frame: StubFrame) -> usize {
        self.push_stub_frame(frame)
    }

    // surface: a step of Figure 3's stack discipline, which only tests walk
    /// After the client stub returns, it pops its own frame and the
    /// arguments, leaving the stack as it was before the call.
    pub fn client_unwind(&mut self, stub_base: usize, arg_count: usize) -> Result<()> {
        if self.words.len() < stub_base.saturating_sub(0) + 4 {
            return Err(SmodError::BadArguments("nothing to unwind".to_string()));
        }
        self.words.truncate(stub_base.saturating_sub(arg_count));
        Ok(())
    }

    /// Raw view of the words (for assertions in tests).
    pub fn words(&self) -> &[Word] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> StubFrame {
        StubFrame {
            client_fp: 0xBFFF_F000,
            return_address: 0x0000_1234,
            module_id: 7,
            func_id: 3,
        }
    }

    #[test]
    fn figure3_four_step_walkthrough() {
        let mut stack = SharedStack::new();
        // Pre-existing caller frame.
        stack.push_args(&[0xAAAA, 0xBBBB]);
        let arg_base = stack.depth();

        // Step 1: real args + stub frame.
        stack.push_args(&[41]);
        let stub_base = stack.push_stub_frame(frame());
        assert_eq!(stub_base, arg_base + 1);

        // Step 2: kernel sees the identification words.
        let kview = stack.kernel_view().unwrap();
        assert_eq!(kview, frame());

        // Step 3: handle pops down to the real arguments.
        let saved = stack.handle_pop_to_args(stub_base).unwrap();
        assert_eq!(saved, frame());
        assert_eq!(stack.callee_args(arg_base, 1).unwrap(), vec![41]);
        assert_eq!(stack.depth(), arg_base + 1);

        // Step 4: handle restores the exact words before returning.
        stack.restore_stub_frame(saved);
        assert_eq!(stack.kernel_view().unwrap(), frame());

        // Client unwinds its stub frame and arguments.
        stack.client_unwind(stub_base, 1).unwrap();
        assert_eq!(stack.words(), &[0xAAAA, 0xBBBB]);
    }

    #[test]
    fn kernel_view_requires_a_frame() {
        let stack = SharedStack::new();
        assert!(stack.kernel_view().is_err());
    }

    #[test]
    fn handle_pop_detects_wrong_base() {
        let mut stack = SharedStack::new();
        stack.push_args(&[1, 2, 3]);
        let base = stack.push_stub_frame(frame());
        assert!(stack.handle_pop_to_args(base + 1).is_err());
        assert!(stack.clone().handle_pop_to_args(base).is_ok());
    }

    #[test]
    fn callee_args_bounds_checked() {
        let mut stack = SharedStack::new();
        stack.push_args(&[1, 2]);
        assert!(stack.callee_args(0, 2).is_ok());
        assert!(stack.callee_args(1, 2).is_err());
    }
}
