//! Cost of establishing (and tearing down) a SecModule session — the
//! initialisation sequence of Figure 1 — plus module registration.

use criterion::{criterion_group, criterion_main, Criterion};
use secmod_core::libc_retrofit::libc_module;
use secmod_core::prelude::*;

const KEY: &[u8] = b"bench-credential";

fn session_setup(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_setup");
    group.sample_size(20);

    group.bench_function("sim_register_module", |b| {
        let module = libc_module(KEY);
        b.iter(|| {
            let mut world = SimWorld::new();
            std::hint::black_box(world.install(&module).unwrap())
        })
    });

    group.bench_function("sim_connect_handshake", |b| {
        let module = libc_module(KEY);
        let mut world = SimWorld::new();
        world.install(&module).unwrap();
        b.iter(|| {
            let client = world
                .spawn_client(
                    "bench-client",
                    Credential::user(1000, 100).with_smod_credential("libc", KEY),
                )
                .unwrap();
            world.connect(client, "libc", 0).unwrap();
            world.disconnect(client).unwrap();
        })
    });

    group.bench_function("secure_module_build_and_seal", |b| {
        b.iter(|| std::hint::black_box(libc_module(KEY)))
    });

    group.finish();
}

criterion_group!(benches, session_setup);
criterion_main!(benches);
