//! Criterion version of Figure 8: native getpid vs the kernel's protected
//! call vs local RPC, per call. The SMOD rows call the libc module's
//! `getpid` and `testincr` through `sys_smod_call` on the bench thread
//! (`smod_*`) and through a depth-1 round trip over a one-drainer dispatch
//! plane (`smod_*_cross_thread`). The RPC row comes in two transports: the
//! paper's Unix socket, and the in-process shared-memory ring pair
//! (`shm:`), which measures the identical record-marked RPC protocol
//! without the socket stack.

use criterion::{criterion_group, criterion_main, Criterion};
use secmod_core::libc_retrofit::libc_module;
use secmod_core::native::{native_getpid, CrossThread};
use secmod_core::prelude::*;
use secmod_kernel::SmodCallArgs;
use secmod_rpc::services::{
    spawn_local_testincr_server, spawn_shm_testincr_server, TestIncrClient,
};

const KEY: &[u8] = b"bench-credential";

fn fig8_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_dispatch");

    group.bench_function("native_getpid", |b| {
        b.iter(|| std::hint::black_box(native_getpid()))
    });

    let mut world = SimWorld::new();
    let m_id = world.install(&libc_module(KEY)).unwrap();
    let cred = Credential::user(1000, 100).with_smod_credential("libc", KEY);
    let client = world.spawn_client("bench-client", cred).unwrap();
    world.connect(client, "libc", 0).unwrap();
    let mut cross = CrossThread::start(&world, client).unwrap();
    for symbol in ["getpid", "testincr"] {
        let func_id = world.func_id(client, symbol).unwrap();
        let mut i = 0u64;
        group.bench_function(format!("smod_{symbol}"), |b| {
            b.iter(|| {
                i += 1;
                let call = SmodCallArgs {
                    m_id,
                    func_id,
                    frame_pointer: 0xBFFF_0000,
                    return_address: 0x0000_1000,
                    args: i.to_le_bytes().to_vec(),
                };
                std::hint::black_box(world.kernel.sys_smod_call(client, call).unwrap())
            })
        });
        group.bench_function(format!("smod_{symbol}_cross_thread"), |b| {
            b.iter(|| {
                i += 1;
                std::hint::black_box(cross.call(func_id, &i.to_le_bytes()).unwrap())
            })
        });
    }

    let server = spawn_local_testincr_server().unwrap();
    let rpc = TestIncrClient::connect(server.endpoint()).unwrap();
    let mut j = 0u64;
    group.bench_function("rpc_testincr", |b| {
        b.iter(|| {
            j += 1;
            std::hint::black_box(rpc.incr(j).unwrap())
        })
    });

    let shm_server = spawn_shm_testincr_server().unwrap();
    let shm_rpc = TestIncrClient::connect(shm_server.endpoint()).unwrap();
    let mut m = 0u64;
    group.bench_function("rpc_testincr_shm", |b| {
        b.iter(|| {
            m += 1;
            std::hint::black_box(shm_rpc.incr(m).unwrap())
        })
    });

    group.finish();
}

criterion_group!(benches, fig8_dispatch);
criterion_main!(benches);
