//! The wall-clock crossings: the kernel's protected call, timed on the
//! host's clock.
//!
//! Figure 8's wall-clock rows price the call its simulated rows price, and
//! they cross into it two ways. In-thread, the caller runs `sys_smod_call`
//! itself. Cross-thread, [`CrossThread`] hands each call to a one-drainer
//! [`DispatchPlane`]: submit one entry, then spin on `reap` until its
//! completion arrives. Both end in the kernel's `call_entry`, under the
//! same credential view, policy verdict and client/handle pair lock, so
//! the crossing is all that differs between the two rows. The handle's
//! body reaches the client heap through the shared pages
//! (`HandleCtx::read` / `HandleCtx::write`) on either crossing.
//! [`native_getpid`] is the baseline both are set against.

use crate::sim::SimWorld;
use crate::Result;
use secmod_kernel::{DispatchPlane, Errno, Pid, PlaneConfig, PlaneHandle};
use std::sync::Arc;

/// Empty polls of the completion ring before a caller starts yielding its
/// CPU: tens of microseconds, well past an uncontended round trip, so only
/// a caller that shares a CPU with the drainer it waits on ever yields.
const SPIN_POLLS: u32 = 1 << 10;

/// The native `getpid()` baseline: a real system call on the host.
pub fn native_getpid() -> u32 {
    std::process::id()
}

/// A depth-1 protected call across threads: one client's session attached
/// to a one-drainer [`DispatchPlane`] on a [`SimWorld`]'s kernel. This is
/// the benchmark's `plane_pingpong` round trip without its think time.
#[derive(Debug)]
pub struct CrossThread {
    // Declared first so the slot detaches before the plane shuts down.
    handle: PlaneHandle,
    _plane: DispatchPlane,
}

impl CrossThread {
    /// Start a one-drainer plane on `world`'s kernel and attach `client`'s
    /// established session: `EPERM` when `client` holds no session.
    pub fn start(world: &SimWorld, client: Pid) -> Result<CrossThread> {
        let config = PlaneConfig::builder().drainers(1).slots(1).build();
        let plane = DispatchPlane::start(Arc::clone(&world.kernel), config)?;
        Ok(CrossThread {
            handle: plane.attach(client)?,
            _plane: plane,
        })
    }

    /// Call `func_id` with `args` and spin until the answer arrives. A
    /// refusal comes back as the errno `sys_smod_call` would have returned.
    pub fn call(&mut self, func_id: u32, args: &[u8]) -> Result<Vec<u8>> {
        // `&mut self` keeps one call in flight, so the ring is never full
        // and the one completion is this call's; the plane outlives the
        // handle, so every submit is accepted.
        if !matches!(self.handle.submit_many(&[(func_id, 0, args)]), Ok(1)) {
            return Err(Errno::EAGAIN.into());
        }
        let mut polls = 0;
        loop {
            if let Some(resp) = self.handle.reap() {
                if resp.is_ok() {
                    return Ok(resp.into_ret());
                }
                return Err(Errno::from_code(resp.errno).unwrap_or(Errno::EINVAL).into());
            }
            if polls < SPIN_POLLS {
                polls += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure_module::SecureModuleBuilder;
    use crate::SmodError;
    use secmod_kernel::{Credential, SmodCallArgs};
    use secmod_vm::Vaddr;

    const KEY: &[u8] = b"native-credential";

    /// One crossing: call a symbol, get the answer.
    type Call<'a> = &'a mut dyn FnMut(&str, &[u8]) -> Result<Vec<u8>>;

    fn le(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes[..8].try_into().unwrap())
    }

    /// A connected client of a module with Figure 8's two functions, a
    /// `load` and `store` over the client heap, and a `secret` the policy
    /// denies.
    fn world() -> (SimWorld, Pid) {
        let module = SecureModuleBuilder::new("libnative", 1)
            .function("testincr", |_ctx, args| {
                Ok((le(args) + 1).to_le_bytes().to_vec())
            })
            .function("getpid", |ctx, _args| {
                Ok((ctx.client_pid.0 as u64).to_le_bytes().to_vec())
            })
            .function("load", |ctx, args| {
                ctx.read(Vaddr(le(args)), le(&args[8..]) as usize)
            })
            .function("store", |ctx, args| {
                ctx.write(Vaddr(le(args)), &args[8..])?;
                Ok(Vec::new())
            })
            .function("secret", |_ctx, _args| Ok(b"secret".to_vec()))
            .allow_credential_if(KEY, "function != \"secret\"")
            .build()
            .unwrap();
        let mut world = SimWorld::new();
        world.install(&module).unwrap();
        let cred = Credential::user(1000, 100).with_smod_credential("libnative", KEY);
        let client = world.spawn_client("app", cred).unwrap();
        world.connect(client, "libnative", 0).unwrap();
        (world, client)
    }

    /// `func_id` through `sys_smod_call` on this thread, as `caller`.
    fn in_thread(world: &SimWorld, caller: Pid, func_id: u32, args: &[u8]) -> Result<Vec<u8>> {
        let call = SmodCallArgs {
            m_id: world.module_id("libnative").unwrap(),
            func_id,
            frame_pointer: 0xBFFF_0000,
            return_address: 0x0000_1000,
            args: args.to_vec(),
        };
        Ok(world.kernel.sys_smod_call(caller, call)?)
    }

    /// Run `check` on the in-thread crossing, then on the cross-thread one.
    fn on_both(world: &SimWorld, client: Pid, mut check: impl FnMut(Call<'_>)) {
        check(&mut |symbol, args| in_thread(world, client, world.func_id(client, symbol)?, args));
        let mut cross = CrossThread::start(world, client).unwrap();
        check(&mut |symbol, args| cross.call(world.func_id(client, symbol)?, args));
    }

    fn refused_with(result: Result<Vec<u8>>, expected: Errno) -> bool {
        matches!(result, Err(SmodError::Kernel(errno)) if errno == expected)
    }

    #[test]
    fn testincr_and_getpid() {
        let (world, client) = world();
        on_both(&world, client, |call| {
            assert_eq!(le(&call("testincr", &41u64.to_le_bytes()).unwrap()), 42);
            assert_eq!(le(&call("getpid", &[]).unwrap()), client.0 as u64);
        });
    }

    #[test]
    fn wrong_credential_cannot_start_a_session() {
        let (mut world, _) = world();
        let cred = Credential::user(1000, 100).with_smod_credential("libnative", b"wrong");
        let intruder = world.spawn_client("intruder", cred).unwrap();
        assert!(matches!(
            world.connect(intruder, "libnative", 0),
            Err(SmodError::Kernel(Errno::EACCES))
        ));
        assert!(world.kernel.session_of(intruder).is_none());
    }

    #[test]
    fn forged_token_is_rejected_per_call() {
        // The kernel's token is the session: a pid holding the module's
        // credential but not the session is refused on every call.
        let (mut world, client) = world();
        let cred = Credential::user(1000, 100).with_smod_credential("libnative", KEY);
        let intruder = world.spawn_client("intruder", cred).unwrap();
        let incr = world.func_id(client, "testincr").unwrap();
        for _ in 0..3 {
            let result = in_thread(&world, intruder, incr, &1u64.to_le_bytes());
            assert!(refused_with(result, Errno::EPERM));
        }
        assert!(matches!(
            CrossThread::start(&world, intruder),
            Err(SmodError::Kernel(Errno::EPERM))
        ));
        // The owner's next call still succeeds.
        on_both(&world, client, |call| {
            assert_eq!(le(&call("testincr", &1u64.to_le_bytes()).unwrap()), 2);
        });
    }

    #[test]
    fn unknown_function() {
        let (world, client) = world();
        on_both(&world, client, |call| {
            assert!(matches!(
                call("does_not_exist", &[]),
                Err(SmodError::UnknownFunction(_))
            ));
        });
        // An id past the stub table reaches the kernel, which has no entry.
        assert!(refused_with(
            in_thread(&world, client, 99, &[]),
            Errno::ENOENT
        ));
        let mut cross = CrossThread::start(&world, client).unwrap();
        assert!(refused_with(cross.call(99, &[]), Errno::ENOENT));
    }

    #[test]
    fn shared_heap_is_visible_to_both_sides() {
        let (world, client) = world();
        let mut at = world.heap_base().0;
        on_both(&world, client, |call| {
            // The client pokes, the body reads.
            world.poke(client, Vaddr(at), b"from client").unwrap();
            let args = [at.to_le_bytes(), 11u64.to_le_bytes()].concat();
            assert_eq!(call("load", &args).unwrap(), b"from client");
            // The body writes, the client peeks.
            let args = [&(at + 32).to_le_bytes()[..], b"from handle"].concat();
            call("store", &args).unwrap();
            assert_eq!(
                world.peek(client, Vaddr(at + 32), 11).unwrap(),
                b"from handle"
            );
            at += 64;
        });
    }

    #[test]
    fn many_calls_are_stable() {
        let (world, client) = world();
        on_both(&world, client, |call| {
            for i in 0..1000u64 {
                assert_eq!(le(&call("testincr", &i.to_le_bytes()).unwrap()), i + 1);
            }
        });
    }

    #[test]
    fn both_crossings_reach_the_same_call_entry() {
        let (world, client) = world();
        let mut answers = Vec::new();
        on_both(&world, client, |call| {
            let denied = call("secret", &[]);
            assert!(refused_with(denied, Errno::EACCES));
            answers.push(call("testincr", &7u64.to_le_bytes()).unwrap());
            answers.push(call("getpid", &[]).unwrap());
        });
        assert_eq!(answers[..2], answers[2..]);
    }

    #[test]
    fn native_getpid_returns_this_process() {
        assert_eq!(native_getpid(), std::process::id());
    }
}
