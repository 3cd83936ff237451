//! Cache-coherence property: for ANY interleaving of queries and
//! invalidating mutations, the gateway answers exactly what an uncached
//! `PolicyEngine::query` answers.
//!
//! The test drives a [`Gateway`] and a mirror (uncached) engine with the
//! same randomly generated operation sequence — policy grants, key
//! registrations, delegations, out-of-band epoch bumps — and demands
//! byte-identical decisions after every step, including a repeat query that
//! is expected to come from the cache. A stale cached decision, a missed
//! invalidation, or a cache key that conflates two distinct requests all
//! fail this property.

//! A second family of tests drives the *kernel-backed* path: the gateway
//! embedded in a registered module, exercised through real
//! `sys_smod_call`s, with sessions detaching and modules being removed and
//! re-registered around the concurrent callers — the cached kernel must
//! remain indistinguishable from an uncached one across every mutation
//! interleaving, and a detach/remove must never let a stale Allow through.

use proptest::prelude::*;
use proptest::{collection, prop_assert_eq, prop_assert_ne, proptest};
use secmod::policy::cache::CacheConfig;
use secmod::policy::gateway::{AccessRequest, Gateway};
use secmod::world::{build_dispatch_kernel_with_clients, WorldConfig};
use secmod_kernel::smod::{ModuleKeyDelivery, SmodCallArgs};
use secmod_kernel::smodreg::FunctionTable;
use secmod_kernel::{Credential, Errno, Kernel, Pid};
use secmod_module::builder::ModuleBuilder;
use secmod_module::{ModuleId, SmodPackage, StubTable};
use secmod_policy::{Assertion, Environment, LicenseeExpr, PolicyEngine, Principal};

/// A fixed cast of principals with their key material.
fn cast() -> Vec<(Principal, Vec<u8>)> {
    (0..16)
        .map(|i| {
            let key = format!("coherence-key-{i}").into_bytes();
            (Principal::from_key(&format!("p{i}"), &key), key)
        })
        .collect()
}

const MODULES: [&str; 4] = ["mod0", "mod1", "mod2", "mod3"];
const FUNCTIONS: [&str; 4] = ["op0", "op1", "op2", "op3"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn gateway_matches_uncached_engine(
        ops in collection::vec((0u8..6, 0u8..=255, 0u8..=255, 0u8..=255), 0..60)
    ) {
        let cast = cast();
        // A deliberately tiny cache so eviction churn is in play too.
        let gateway = Gateway::new(
            PolicyEngine::new(),
            CacheConfig { shards: 4, capacity: 32 },
        );
        let mut mirror = PolicyEngine::new();

        for (code, a, b, c) in ops {
            let pa = &cast[a as usize % cast.len()];
            let pb = &cast[b as usize % cast.len()];
            match code {
                // Queries: sometimes one requester, sometimes two.
                0 | 1 => {
                    let mut requesters = vec![pa.0.clone()];
                    if c % 2 == 1 {
                        requesters.push(pb.0.clone());
                    }
                    let req = AccessRequest {
                        requesters: &requesters,
                        app_domain: "prop",
                        module: MODULES[b as usize % MODULES.len()],
                        version: 1,
                        operation: FUNCTIONS[c as usize % FUNCTIONS.len()],
                        uid: 1000 + (a % 8) as i64,
                    };
                    let uncached = mirror.query(&requesters, &req.environment());
                    prop_assert_eq!(gateway.check(&req), uncached.clone());
                    // The repeat is expected to be a cache hit — and must
                    // still be indistinguishable from the uncached answer.
                    prop_assert_eq!(gateway.check(&req), uncached);
                }
                // Direct policy grant (conditionally scoped to a module).
                2 => {
                    let cond = if c % 2 == 0 {
                        String::new()
                    } else {
                        format!("module == \"{}\"", MODULES[b as usize % MODULES.len()])
                    };
                    let assertion =
                        Assertion::policy(LicenseeExpr::Single(pa.0.clone()), &cond).unwrap();
                    prop_assert_eq!(
                        gateway.add_assertion(assertion.clone()),
                        mirror.add_assertion(assertion)
                    );
                }
                // Key registration: can retroactively admit delegations.
                3 => {
                    gateway.register_key(&pa.0, &pa.1);
                    mirror.register_key(&pa.0, &pa.1);
                }
                // Delegation: rejected identically by both sides until the
                // authorizer's key is registered.
                4 => {
                    let assertion = Assertion::delegation(
                        pa.0.clone(),
                        LicenseeExpr::Single(pb.0.clone()),
                        &format!("function != \"{}\"", FUNCTIONS[c as usize % FUNCTIONS.len()]),
                    )
                    .unwrap()
                    .sign(&pa.1);
                    prop_assert_eq!(
                        gateway.add_assertion(assertion.clone()),
                        mirror.add_assertion(assertion)
                    );
                }
                // Out-of-band invalidation (a policy mutation the engine
                // does not see): must never change any answer.
                _ => gateway.bump_epoch(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Three-tier coherence: for ANY interleaving of queries, grants, key
    /// registrations, delegations and out-of-band epoch bumps, the answer
    /// must be identical whether it is served by the thread-local L0
    /// table, the sharded decision cache, or the uncached engine. Each
    /// query is asked three ways — cold (any tier), hot (expected L0),
    /// and with the thread's L0 table wiped (expected sharded) — and all
    /// three must match the uncached mirror. A stale L0 entry surviving
    /// an epoch bump, or an L0 keying bug conflating two requests, fails
    /// here before it would fail in production traffic.
    #[test]
    fn l0_sharded_and_uncached_tiers_agree(
        ops in collection::vec((0u8..6, 0u8..=255, 0u8..=255, 0u8..=255), 0..60)
    ) {
        use secmod_policy::DecisionTier;
        // The L0 table is thread-local and proptest reuses its worker
        // thread across cases: start each case from a clean table.
        secmod_policy::l0::clear_thread_cache();
        let cast = cast();
        let gateway = Gateway::new(
            PolicyEngine::new(),
            CacheConfig { shards: 4, capacity: 32 },
        );
        let mut mirror = PolicyEngine::new();

        for (code, a, b, c) in ops {
            let pa = &cast[a as usize % cast.len()];
            let pb = &cast[b as usize % cast.len()];
            match code {
                0 | 1 => {
                    let mut requesters = vec![pa.0.clone()];
                    if c % 2 == 1 {
                        requesters.push(pb.0.clone());
                    }
                    let req = AccessRequest {
                        requesters: &requesters,
                        app_domain: "prop",
                        module: MODULES[b as usize % MODULES.len()],
                        version: 1,
                        operation: FUNCTIONS[c as usize % FUNCTIONS.len()],
                        uid: 1000 + (a % 8) as i64,
                    };
                    let mirror_result = mirror.query(&requesters, &req.environment());
                    let cacheable = mirror_result.is_ok();
                    let uncached = matches!(mirror_result, Ok(d) if d.is_allowed());
                    // Cold: whichever tier answers must agree.
                    prop_assert_eq!(gateway.is_allowed_tiered(&req).0, uncached);
                    // Hot: the repeat must agree, and — whenever the cold
                    // pass was cacheable — come from the L0. (Engine
                    // errors are deny-without-caching, so they re-consult
                    // the engine every time by design.)
                    let (hot, tier) = gateway.is_allowed_tiered(&req);
                    prop_assert_eq!(hot, uncached);
                    if cacheable {
                        prop_assert_eq!(tier, DecisionTier::L0);
                    }
                    // L0 wiped: the answer must survive losing the
                    // thread-local tier — served by the sharded cache, or
                    // recomputed if eviction churn dropped the entry —
                    // and must never come from the just-cleared L0.
                    secmod_policy::l0::clear_thread_cache();
                    let (wiped, tier) = gateway.is_allowed_tiered(&req);
                    prop_assert_eq!(wiped, uncached);
                    prop_assert_ne!(tier, DecisionTier::L0);
                }
                2 => {
                    let cond = if c % 2 == 0 {
                        String::new()
                    } else {
                        format!("module == \"{}\"", MODULES[b as usize % MODULES.len()])
                    };
                    let assertion =
                        Assertion::policy(LicenseeExpr::Single(pa.0.clone()), &cond).unwrap();
                    prop_assert_eq!(
                        gateway.add_assertion(assertion.clone()),
                        mirror.add_assertion(assertion)
                    );
                }
                3 => {
                    gateway.register_key(&pa.0, &pa.1);
                    mirror.register_key(&pa.0, &pa.1);
                }
                4 => {
                    let assertion = Assertion::delegation(
                        pa.0.clone(),
                        LicenseeExpr::Single(pb.0.clone()),
                        &format!("function != \"{}\"", FUNCTIONS[c as usize % FUNCTIONS.len()]),
                    )
                    .unwrap()
                    .sign(&pa.1);
                    prop_assert_eq!(
                        gateway.add_assertion(assertion.clone()),
                        mirror.add_assertion(assertion)
                    );
                }
                // Out-of-band epoch bump: every L0 and sharded entry must
                // become unreachable, never serve a pre-bump answer.
                _ => gateway.bump_epoch(),
            }
        }
    }
}

// ====================================================================
// Kernel-backed coherence: the embedded per-module gateway, driven
// through the real dispatch path.
// ====================================================================

const CLIENT_KEYS: [&[u8]; 2] = [b"kcoh-client-key-0", b"kcoh-client-key-1"];
const MAC_KEY: &[u8] = b"kcoh-mac-key";

/// Register the libc-like module whose policy initially grants client 0
/// everything except `strlen`, returning the kernel, module id and the two
/// connected clients.
fn kernel_universe() -> (Kernel, ModuleId, Vec<Pid>) {
    let kernel = Kernel::default();
    kernel.tracer.set_enabled(false);
    let registrar = kernel
        .spawn_process("registrar", Credential::root(), vec![0x90; 4096], 2, 2)
        .unwrap();

    let image = ModuleBuilder::libc_like();
    let key = b"0123456789abcdef".to_vec();
    let nonce = [5u8; 8];
    let enc = secmod_crypto::SelectiveEncryptor::new(&key, nonce).unwrap();
    let package = SmodPackage::seal(&image, &enc, MAC_KEY).unwrap();

    let mut policy = PolicyEngine::new();
    policy
        .add_assertion(
            Assertion::policy(
                LicenseeExpr::Single(Principal::from_key("c0", CLIENT_KEYS[0])),
                "function != \"strlen\"",
            )
            .unwrap(),
        )
        .unwrap();

    let stub_table = StubTable::generate(&image);
    let mut functions = FunctionTable::new();
    for stub in &stub_table.stubs {
        functions.register(stub.func_id, |_ctx, _args| Ok(vec![1]));
    }

    let m_id = kernel
        .sys_smod_add(
            registrar,
            package,
            ModuleKeyDelivery::Raw { key, nonce },
            MAC_KEY,
            policy,
            functions,
        )
        .unwrap();

    let clients: Vec<Pid> = (0..2)
        .map(|i| {
            let client = kernel
                .spawn_process(
                    &format!("kcoh{i}"),
                    Credential::user(1000 + i, 100)
                        .with_smod_credential("libc", CLIENT_KEYS[i as usize]),
                    vec![0x90; 4096],
                    4,
                    4,
                )
                .unwrap();
            // Client 1 has no grant yet; establish its session only once a
            // grant exists — so at build time only client 0 connects.
            client
        })
        .collect();
    establish(&kernel, clients[0], m_id);
    (kernel, m_id, clients)
}

fn establish(kernel: &Kernel, client: Pid, m_id: ModuleId) {
    let (_s, handle) = kernel.sys_smod_start_session(client, m_id).unwrap();
    kernel.sys_smod_session_info(handle).unwrap();
    kernel.sys_smod_handle_info(client).unwrap();
}

fn dispatch(kernel: &Kernel, client: Pid, m_id: ModuleId, func_id: u32) -> Result<bool, Errno> {
    match kernel.sys_smod_call(
        client,
        SmodCallArgs {
            m_id,
            func_id,
            frame_pointer: 0,
            return_address: 0,
            args: 7u64.to_le_bytes().to_vec(),
        },
    ) {
        Ok(_) => Ok(true),
        Err(Errno::EACCES) => Ok(false),
        Err(e) => Err(e),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// For ANY interleaving of kernel dispatches, policy grants (live,
    /// through the embedded gateway), and session detach/re-establish
    /// cycles (teardown-fence bumps), the cached kernel answers exactly what
    /// an uncached mirror engine answers.
    #[test]
    fn kernel_gateway_matches_uncached_engine(
        ops in collection::vec((0u8..5, 0u8..=255, 0u8..=255), 1..40)
    ) {
        let (kernel, m_id, clients) = kernel_universe();
        let module = kernel.registry.get(m_id).unwrap();
        let stubs: Vec<(u32, String)> = module
            .package
            .stub_table
            .stubs
            .iter()
            .map(|s| (s.func_id, s.symbol.clone()))
            .collect();
        // The uncached mirror: same assertions, queried directly.
        let mut mirror = PolicyEngine::new();
        mirror
            .add_assertion(
                Assertion::policy(
                    LicenseeExpr::Single(Principal::from_key("c0", CLIENT_KEYS[0])),
                    "function != \"strlen\"",
                )
                .unwrap(),
            )
            .unwrap();
        let mut connected = [true, false];

        for (code, a, b) in ops {
            let who = (a % 2) as usize;
            let (func_id, symbol) = &stubs[b as usize % stubs.len()];
            match code {
                // A dispatch, checked against the mirror (repeated so the
                // second answer is expected to come from the cache).
                0 | 1 => {
                    if !connected[who] {
                        continue;
                    }
                    let client = clients[who];
                    let principal = Principal::from_key("p", CLIENT_KEYS[who]);
                    let env = Environment::for_smod_call(
                        &format!("kcoh{who}"),
                        "libc",
                        36,
                        symbol,
                        1000 + who as i64,
                    );
                    let expected = mirror.is_allowed(std::slice::from_ref(&principal), &env);
                    prop_assert_eq!(dispatch(&kernel, client, m_id, *func_id), Ok(expected));
                    prop_assert_eq!(dispatch(&kernel, client, m_id, *func_id), Ok(expected));
                }
                // A live policy grant through the embedded gateway; must be
                // visible to the very next dispatch.
                2 => {
                    let cond = if b % 2 == 0 {
                        String::new()
                    } else {
                        format!("function != \"{symbol}\"")
                    };
                    let assertion = Assertion::policy(
                        LicenseeExpr::Single(Principal::from_key("p", CLIENT_KEYS[who])),
                        &cond,
                    )
                    .unwrap();
                    let module = kernel.registry.get(m_id).unwrap();
                    prop_assert_eq!(
                        module.gateway.add_assertion(assertion.clone()).is_ok(),
                        mirror.add_assertion(assertion).is_ok()
                    );
                }
                // Detach + re-establish: bumps the kernel's teardown fence
                // and changes no decision, so the cached ones stay valid
                // and must still agree with the mirror.
                3 => {
                    if connected[who] {
                        kernel.smod_detach(clients[who], "coherence churn").unwrap();
                        connected[who] = false;
                    }
                }
                // (Re)connect, if the policy currently admits a session.
                _ => {
                    if !connected[who]
                        && kernel.sys_smod_start_session(clients[who], m_id).is_ok()
                    {
                        let handle =
                            kernel.procs.with(clients[who], |p| p.smod.unwrap().peer).unwrap();
                        kernel.sys_smod_session_info(handle).unwrap();
                        kernel.sys_smod_handle_info(clients[who]).unwrap();
                        connected[who] = true;
                    }
                }
            }
        }
    }
}

/// A module removal must take every decision cached for it along: the
/// removed module's gateway goes with it, and re-registering the same
/// name/version with a *stricter* policy builds a fresh gateway whose
/// process-unique id partitions the L0, so the old policy's cached Allow
/// is never served to the new module.
#[test]
fn remove_and_reregister_never_serves_stale_allow() {
    let (kernel, m_id, clients) = kernel_universe();
    let module = kernel.registry.get(m_id).unwrap();
    let getpid_id = module.package.stub_table.by_name("getpid").unwrap().func_id;
    // Warm the cache with Allows for client 0.
    assert_eq!(dispatch(&kernel, clients[0], m_id, getpid_id), Ok(true));
    assert_eq!(dispatch(&kernel, clients[0], m_id, getpid_id), Ok(true));
    drop(module);

    // Tear down and remove the module (both bump the teardown fence).
    kernel.smod_detach(clients[0], "teardown").unwrap();
    kernel.sys_smod_remove(Pid(1), m_id).unwrap();

    // Re-register the same module name/version with an empty (deny-all)
    // policy. If the old module's cached Allow leaked through, the session
    // start below would succeed.
    let image = ModuleBuilder::libc_like();
    let key = b"0123456789abcdef".to_vec();
    let nonce = [5u8; 8];
    let enc = secmod_crypto::SelectiveEncryptor::new(&key, nonce).unwrap();
    let package = SmodPackage::seal(&image, &enc, MAC_KEY).unwrap();
    let m2 = kernel
        .sys_smod_add(
            Pid(1),
            package,
            ModuleKeyDelivery::Raw { key, nonce },
            MAC_KEY,
            PolicyEngine::new(),
            FunctionTable::new(),
        )
        .unwrap();
    assert_ne!(m2, m_id);
    assert_eq!(
        kernel.sys_smod_start_session(clients[0], m2).unwrap_err(),
        Errno::EACCES,
        "stale cached Allow served to the re-registered module"
    );
}

/// Sessions detaching *while* other threads dispatch concurrently must
/// never flip a decision: allowed operations stay allowed, the restricted
/// operation stays denied, across every teardown the churn injects.
#[test]
fn concurrent_dispatch_with_racing_detach_stays_coherent() {
    const OPS_PER_THREAD: u64 = 1_500;
    let cfg = WorldConfig::new(23);
    let dispatch_kernel = build_dispatch_kernel_with_clients(&cfg, 3);
    let kernel = &dispatch_kernel.kernel;
    let m_id = dispatch_kernel.module;
    let restricted = dispatch_kernel.func_ids[0];
    let allowed = dispatch_kernel.func_ids[1];

    // A churn client with its own credential cycles sessions, bumping the
    // kernel's teardown fence under the workers' feet.
    let churn_key = b"kcoh-churn-key".to_vec();
    {
        let module = kernel.registry.get(m_id).unwrap();
        let vendor_key = format!("dispatch-vendor-key-{}", cfg.seed);
        module
            .gateway
            .add_assertion(
                Assertion::delegation(
                    Principal::from_key("vendor", vendor_key.as_bytes()),
                    LicenseeExpr::Single(Principal::from_key("churn", &churn_key)),
                    "function != \"restricted\"",
                )
                .unwrap()
                .sign(vendor_key.as_bytes()),
            )
            .unwrap();
    }
    let churn_client = kernel
        .spawn_process(
            "churn",
            Credential::user(4242, 42).with_smod_credential("libdispatch", &churn_key),
            vec![0x90; 4096],
            4,
            4,
        )
        .unwrap();

    std::thread::scope(|s| {
        for (t, &client) in dispatch_kernel.clients.iter().enumerate() {
            s.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let func = if i % 3 == 0 { restricted } else { allowed };
                    let outcome = dispatch(kernel, client, m_id, func).unwrap();
                    assert_eq!(
                        outcome,
                        func != restricted,
                        "thread {t} op {i}: stale decision served during churn"
                    );
                }
            });
        }
        s.spawn(move || {
            for _ in 0..200 {
                establish(kernel, churn_client, m_id);
                kernel.smod_detach(churn_client, "race churn").unwrap();
            }
        });
    });
    assert!(kernel.smod_epoch() >= 200, "churn never bumped the epoch");
}
