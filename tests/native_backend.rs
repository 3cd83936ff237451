//! The wall-clock crossings into the kernel: `sys_smod_call` on the
//! calling thread and a depth-1 round trip through a one-drainer plane
//! ([`CrossThread`]) reach the same protected call, and the Figure 8
//! ordering holds for both on real time.

use secmod_core::native::{native_getpid, CrossThread};
use secmod_core::prelude::*;
use secmod_kernel::{Errno, SmodCallArgs};
use secmod_rpc::services::{spawn_local_testincr_server, TestIncrClient};
use secmod_vm::Vaddr;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

const KEY: &[u8] = b"native-test-key";

/// Held by every test in this file: a sibling's drainer polling on a
/// small host would take CPU time from the Figure 8 timing.
static HOST_CLOCK: Mutex<()> = Mutex::new(());

fn host_clock() -> MutexGuard<'static, ()> {
    HOST_CLOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn le(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().unwrap())
}

/// A world with Figure 8's `testincr` and `getpid` and a `fill` that
/// writes `len` bytes of 0xAB at an address in the client heap.
fn world() -> SimWorld {
    let module = SecureModuleBuilder::new("libnative", 1)
        .function("testincr", |_ctx, args| {
            Ok((le(args) + 1).to_le_bytes().to_vec())
        })
        .function("getpid", |ctx, _args| {
            Ok((ctx.client_pid.0 as u64).to_le_bytes().to_vec())
        })
        .function("fill", |ctx, args| {
            ctx.write(Vaddr(le(args)), &vec![0xAB; le(&args[8..]) as usize])?;
            Ok(Vec::new())
        })
        .allow_credential(KEY)
        .build()
        .unwrap();
    let mut world = SimWorld::new();
    world.install(&module).unwrap();
    world
}

fn connect(world: &mut SimWorld, name: &str) -> Pid {
    let cred = Credential::user(1000, 100).with_smod_credential("libnative", KEY);
    let client = world.spawn_client(name, cred).unwrap();
    world.connect(client, "libnative", 0).unwrap();
    client
}

/// `func_id` through `sys_smod_call` on this thread, as `caller`.
fn in_thread(world: &SimWorld, caller: Pid, func_id: u32, args: &[u8]) -> Result<Vec<u8>, Errno> {
    world.kernel.sys_smod_call(
        caller,
        SmodCallArgs {
            m_id: world.module_id("libnative").unwrap(),
            func_id,
            frame_pointer: 0xBFFF_0000,
            return_address: 0x0000_1000,
            args: args.to_vec(),
        },
    )
}

#[test]
fn dispatch_and_shared_heap() {
    let _host = host_clock();
    let mut world = world();
    let client = connect(&mut world, "app");
    let incr = world.func_id(client, "testincr").unwrap();
    let fill = world.func_id(client, "fill").unwrap();
    let mut cross = CrossThread::start(&world, client).unwrap();
    let heap = world.heap_base().0;

    assert_eq!(
        le(&in_thread(&world, client, incr, &41u64.to_le_bytes()).unwrap()),
        42
    );
    assert_eq!(le(&cross.call(incr, &41u64.to_le_bytes()).unwrap()), 42);

    let args = [heap.to_le_bytes(), 100u64.to_le_bytes()].concat();
    in_thread(&world, client, fill, &args).unwrap();
    assert_eq!(
        world.peek(client, Vaddr(heap), 100).unwrap(),
        vec![0xAB; 100]
    );
    let args = [(heap + 128).to_le_bytes(), 100u64.to_le_bytes()].concat();
    cross.call(fill, &args).unwrap();
    assert_eq!(
        world.peek(client, Vaddr(heap + 128), 100).unwrap(),
        vec![0xAB; 100]
    );
}

#[test]
fn credential_enforcement() {
    let _host = host_clock();
    let mut world = world();
    let client = connect(&mut world, "app");
    let incr = world.func_id(client, "testincr").unwrap();
    // Without the module credential no session starts.
    let cred = Credential::user(1000, 100).with_smod_credential("libnative", b"wrong-key");
    let intruder = world.spawn_client("intruder", cred).unwrap();
    assert!(matches!(
        world.connect(intruder, "libnative", 0),
        Err(SmodError::Kernel(Errno::EACCES))
    ));
    // Without a session, neither crossing reaches the module.
    assert_eq!(
        in_thread(&world, intruder, incr, &0u64.to_le_bytes()),
        Err(Errno::EPERM)
    );
    assert!(matches!(
        CrossThread::start(&world, intruder),
        Err(SmodError::Kernel(Errno::EPERM))
    ));
}

#[test]
fn getpid_over_smod_matches_native_getpid() {
    let _host = host_clock();
    let mut world = world();
    let client = connect(&mut world, "app");
    let getpid = world.func_id(client, "getpid").unwrap();
    let expected = world.native_getpid(client).unwrap().0 as u64;
    assert_eq!(
        le(&in_thread(&world, client, getpid, &[]).unwrap()),
        expected
    );
    let mut cross = CrossThread::start(&world, client).unwrap();
    assert_eq!(le(&cross.call(getpid, &[]).unwrap()), expected);
}

/// Nanoseconds per call of the fastest of five trials of `calls` calls.
fn fastest_ns(calls: u64, mut per_call: impl FnMut(u64)) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                per_call(i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn figure8_ordering_holds_on_real_time() {
    let _host = host_clock();
    // A scaled-down Figure 8: native getpid < the kernel's protected call
    // < local RPC, on wall-clock time, for each crossing. (The full
    // harness lives in the benchmark crate; this keeps CI honest with
    // small counts.)
    const CALLS: u64 = 2_000;
    let mut world = world();
    let client = connect(&mut world, "app");
    let incr = world.func_id(client, "testincr").unwrap();

    let getpid_ns = fastest_ns(CALLS, |_| {
        std::hint::black_box(native_getpid());
    });
    let in_thread_ns = fastest_ns(CALLS, |i| {
        std::hint::black_box(in_thread(&world, client, incr, &i.to_le_bytes()).unwrap());
    });
    let mut cross = CrossThread::start(&world, client).unwrap();
    let cross_thread_ns = fastest_ns(CALLS, |i| {
        std::hint::black_box(cross.call(incr, &i.to_le_bytes()).unwrap());
    });

    // RPC(testincr) over a real Unix socket.
    let server = spawn_local_testincr_server().unwrap();
    let rpc = TestIncrClient::connect(server.endpoint()).unwrap();
    rpc.incr(0).unwrap(); // warm up
    let rpc_ns = fastest_ns(CALLS / 4, |i| {
        std::hint::black_box(rpc.incr(i).unwrap());
    });

    for (crossing, smod_ns) in [
        ("in-thread", in_thread_ns),
        ("cross-thread", cross_thread_ns),
    ] {
        assert!(
            getpid_ns < smod_ns,
            "native getpid ({getpid_ns} ns) should be cheaper than the {crossing} call ({smod_ns} ns)"
        );
        assert!(
            smod_ns < rpc_ns,
            "the {crossing} call ({smod_ns} ns) should be cheaper than RPC ({rpc_ns} ns)"
        );
    }
}

#[test]
fn many_sessions_are_independent() {
    let _host = host_clock();
    let mut world = world();
    let clients: Vec<Pid> = (0..8)
        .map(|i| connect(&mut world, &format!("app{i}")))
        .collect();
    let incr = world.func_id(clients[0], "testincr").unwrap();
    for (i, &client) in clients.iter().enumerate() {
        let r = in_thread(&world, client, incr, &(i as u64).to_le_bytes()).unwrap();
        assert_eq!(le(&r), i as u64 + 1);
    }
    let mut crossings: Vec<CrossThread> = clients
        .iter()
        .map(|&client| CrossThread::start(&world, client).unwrap())
        .collect();
    for (i, cross) in crossings.iter_mut().enumerate() {
        let r = cross.call(incr, &(i as u64 + 10).to_le_bytes()).unwrap();
        assert_eq!(le(&r), i as u64 + 11);
    }
    assert_ne!(
        world.kernel.session_of(clients[0]).unwrap().id,
        world.kernel.session_of(clients[1]).unwrap().id
    );
}
