//! The one test world: a live kernel, one protected module, and a pool of
//! established sessions.
//!
//! Every suite that holds a dispatch path to an invariant — the coherence
//! proptests under `tests/`, the allocation tripwire and the
//! dispatch-metrics test — starts from [`build_dispatch_kernel_with_clients`],
//! so they all exercise the same policy, the same module image and the
//! same handler. Performance is measured elsewhere, by the repo benchmark.
//!
//! ```
//! use secmod::world::{build_dispatch_kernel_with_clients, WorldConfig};
//!
//! let world = build_dispatch_kernel_with_clients(&WorldConfig::new(42), 2);
//! assert_eq!(world.clients.len(), 2);
//! assert!(world.kernel.session_of(world.clients[0]).is_some());
//! ```

use secmod_kernel::smodreg::FunctionTable;
use secmod_kernel::{Credential, Errno, Kernel, Pid};
use secmod_module::builder::{FunctionSpec, ModuleBuilder};
use secmod_module::{ModuleId, SmodPackage, StubTable};
use secmod_policy::cache::CacheConfig;
use secmod_policy::{Assertion, LicenseeExpr, PolicyEngine, Principal};

/// Operations the module exports; index 0 is `"restricted"`, which the
/// policy denies.
const OPERATIONS: usize = 4;

/// Shape of a [`DispatchKernel`].
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Seeds every tenant's key and the vendor's.
    pub seed: u64,
    /// Delegated tenants: the policy holds one grant per tenant, and at
    /// most this many clients connect.
    pub tenants: usize,
    /// Sizing of the module's embedded decision cache; pass
    /// [`CacheConfig::disabled`] for the uncached baseline through the
    /// identical code path.
    pub cache: CacheConfig,
}

impl WorldConfig {
    /// The small shape every suite uses: 16 tenants and an 8×512
    /// decision cache.
    pub fn new(seed: u64) -> WorldConfig {
        WorldConfig {
            seed,
            tenants: 16,
            cache: CacheConfig {
                shards: 8,
                capacity: 512,
            },
        }
    }
}

/// A live kernel-dispatch world: one shared kernel, one registered module
/// (whose embedded gateway serves every per-call check), and a pool of
/// established sessions.
pub struct DispatchKernel {
    /// The shared kernel; every syscall takes `&self`.
    pub kernel: Kernel,
    /// The registered module.
    pub module: ModuleId,
    /// The connected clients, each with an established session.
    pub clients: Vec<Pid>,
    /// Function ids of the module's operations; index 0 is the
    /// `"restricted"` operation that the policy denies.
    pub func_ids: Vec<u32>,
}

/// Build a kernel with one module protected by a vendor → per-tenant
/// delegation policy (each decision is a two-hop fixpoint when uncached,
/// exactly what the embedded decision cache amortises) and `n_clients`
/// connected clients with per-tenant credentials and an established
/// session each. `n_clients` is clamped to `1..=cfg.tenants`, so every
/// client has a delegation. Each operation's handler returns its first
/// argument word plus one.
pub fn build_dispatch_kernel_with_clients(cfg: &WorldConfig, n_clients: usize) -> DispatchKernel {
    const MODULE_NAME: &str = "libdispatch";
    let kernel = Kernel::with_gate_config(secmod_kernel::CostModel::default(), cfg.cache);
    // Tracing every dispatch from N threads would serialise them on the
    // tracer mutex and grow an unbounded log.
    kernel.tracer.set_enabled(false);
    let registrar = kernel
        .spawn_process(
            "dispatch-registrar",
            Credential::root(),
            vec![0x90; 4096],
            2,
            2,
        )
        .expect("spawn registrar");

    // The module image: operation 0 is "restricted", the rest are opN.
    let operations: Vec<String> = std::iter::once("restricted".to_string())
        .chain((1..OPERATIONS).map(|o| format!("op{o}")))
        .collect();
    let mut builder = ModuleBuilder::new(MODULE_NAME, 1);
    for op in &operations {
        builder.add_function(FunctionSpec::new(op, 64));
    }
    let image = builder.build(false).expect("build dispatch image");
    let stub_table = StubTable::generate(&image);
    let func_ids: Vec<u32> = operations
        .iter()
        .map(|op| stub_table.by_name(op).expect("stub exists").func_id)
        .collect();
    let mut functions = FunctionTable::new();
    for &func_id in &func_ids {
        functions.register(func_id, |_ctx, args| {
            let v = u64::from_le_bytes(args[..8].try_into().map_err(|_| Errno::EINVAL)?);
            Ok((v + 1).to_le_bytes().to_vec())
        });
    }

    // The policy root trusts the vendor for the module, and the vendor
    // delegates everything but "restricted" to each tenant. Its size —
    // and so the uncached fixpoint cost — is set by `cfg.tenants`, not by
    // how many clients connect.
    let tenant_keys: Vec<Vec<u8>> = (0..cfg.tenants.max(1))
        .map(|t| format!("tenant-key-{t}-{}", cfg.seed).into_bytes())
        .collect();
    let vendor_key = format!("dispatch-vendor-key-{}", cfg.seed);
    let vendor = Principal::from_key("vendor", vendor_key.as_bytes());
    let mut policy = PolicyEngine::new();
    policy.register_key(&vendor, vendor_key.as_bytes());
    let trust = format!("module == \"{MODULE_NAME}\"");
    let root = Assertion::policy(LicenseeExpr::Single(vendor.clone()), &trust);
    let root = root.expect("the trust condition parses");
    policy
        .add_assertion(root)
        .expect("the root assertion is accepted");
    for key in &tenant_keys {
        let tenant = LicenseeExpr::Single(Principal::from_key("tenant", key));
        let grant = Assertion::delegation(vendor.clone(), tenant, "function != \"restricted\"");
        let grant = grant.expect("the grant condition parses");
        let grant = grant.sign(vendor_key.as_bytes());
        policy
            .add_assertion(grant)
            .expect("a signed grant is accepted");
    }

    let module_key = b"0123456789abcdef".to_vec();
    let nonce = [9u8; 8];
    let enc = secmod_crypto::SelectiveEncryptor::new(&module_key, nonce).expect("encryptor");
    let package = SmodPackage::seal(&image, &enc, b"dispatch-mac-key").expect("seal");
    let module = kernel
        .sys_smod_add(
            registrar,
            package,
            secmod_kernel::smod::ModuleKeyDelivery::Raw {
                key: module_key,
                nonce,
            },
            b"dispatch-mac-key",
            policy,
            functions,
        )
        .expect("register dispatch module");

    let clients: Vec<Pid> = tenant_keys
        .iter()
        .take(n_clients.clamp(1, tenant_keys.len()))
        .enumerate()
        .map(|(t, key)| {
            let client = kernel
                .spawn_process(
                    &format!("dispatch-client{t}"),
                    Credential::user(1000 + t as u32, 100).with_smod_credential(MODULE_NAME, key),
                    vec![0x90; 4096],
                    4,
                    4,
                )
                .expect("spawn dispatch client");
            let (_session, handle) = kernel
                .sys_smod_start_session(client, module)
                .expect("start session");
            kernel.sys_smod_session_info(handle).expect("handle ready");
            kernel.sys_smod_handle_info(client).expect("handshake");
            client
        })
        .collect();

    DispatchKernel {
        kernel,
        module,
        clients,
        func_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secmod_kernel::smod::SmodCallArgs;

    /// One `sys_smod_call` of every operation from every client, `rounds`
    /// times over; returns the (allow, deny) split.
    fn call_every_operation(world: &DispatchKernel, rounds: u64) -> (u64, u64) {
        let (mut allows, mut denies) = (0, 0);
        for round in 0..rounds {
            for &client in &world.clients {
                for &func_id in &world.func_ids {
                    let args = SmodCallArgs {
                        m_id: world.module,
                        func_id,
                        frame_pointer: 0xBFFF_0000,
                        return_address: 0x0000_1000,
                        args: round.to_le_bytes().to_vec(),
                    };
                    match world.kernel.sys_smod_call(client, args) {
                        Ok(_) => allows += 1,
                        Err(Errno::EACCES) => denies += 1,
                        Err(e) => panic!("unexpected dispatch errno {e:?}"),
                    }
                }
            }
        }
        (allows, denies)
    }

    #[test]
    fn session_pool_spreads_load_over_many_sessions() {
        let cfg = WorldConfig::new(11);
        let world = build_dispatch_kernel_with_clients(&cfg, cfg.tenants);
        assert_eq!(world.clients.len(), cfg.tenants, "one session per tenant");
        let sessions: std::collections::BTreeSet<u32> = world
            .clients
            .iter()
            .map(|&c| world.kernel.session_of(c).expect("established").id.0)
            .collect();
        assert_eq!(sessions.len(), cfg.tenants, "sessions must be distinct");
        // More clients than tenants is clamped: every client needs a grant.
        let clamped = build_dispatch_kernel_with_clients(&cfg, cfg.tenants + 5);
        assert_eq!(clamped.clients.len(), cfg.tenants);
    }

    #[test]
    fn kernel_dispatch_serves_checks_from_the_embedded_cache() {
        const ROUNDS: u64 = 20;
        let world = build_dispatch_kernel_with_clients(&WorldConfig::new(11), 4);
        let (allows, denies) = call_every_operation(&world, ROUNDS);
        // "restricted" is denied on every client, everything else allowed.
        let calls = ROUNDS * world.clients.len() as u64;
        assert_eq!(denies, calls);
        assert_eq!(allows, calls * (world.func_ids.len() as u64 - 1));
        // Each (client, operation) key misses once; the steady state hits.
        let metrics = &world.kernel.metrics;
        let keys = (world.clients.len() * world.func_ids.len()) as u64;
        assert_eq!(metrics.gate_misses.get(), keys);
        assert_eq!(metrics.gate_hits.get(), ROUNDS * keys - keys);
    }

    /// Deterministically, on one thread: a fixed list of `sys_smod_call`s
    /// over `keys` distinct (client, operation) pairs. Each key misses
    /// once and hits ever after — mostly in the thread-local L0 tier,
    /// which the sharded tier's own hit counter never sees — so only the
    /// kernel's gate counters add up to these numbers.
    #[test]
    fn report_assembly_reads_the_gate_counters() {
        const ROUNDS: u64 = 5;
        let world = build_dispatch_kernel_with_clients(&WorldConfig::new(5), 4);
        let metrics = &world.kernel.metrics;
        let gateway = &world.kernel.registry.get(world.module).unwrap().gateway;
        let gate = || (metrics.gate_hits.get(), metrics.gate_misses.get());
        let ((hits, misses), sharded) = (gate(), gateway.cache_stats());
        call_every_operation(&world, ROUNDS);
        let keys = (world.clients.len() * world.func_ids.len()) as u64;
        let (gate_hits, gate_misses) = gate();
        assert_eq!(gate_misses - misses, keys);
        assert_eq!(gate_hits - hits, ROUNDS * keys - keys);
        let sharded_hits = gateway.cache_stats().hits - sharded.hits;
        assert!(
            sharded_hits < gate_hits - hits,
            "the sharded tier saw {sharded_hits} hits; L0 hits must not reach it"
        );
    }

    #[test]
    fn kernel_dispatch_uncached_baseline_never_hits() {
        let cfg = WorldConfig::new(11);
        let cached = build_dispatch_kernel_with_clients(&cfg, 4);
        let uncached = WorldConfig {
            cache: CacheConfig::disabled(),
            ..cfg
        };
        let uncached = build_dispatch_kernel_with_clients(&uncached, 4);
        let split = call_every_operation(&uncached, 5);
        let hits = uncached.kernel.metrics.gate_hits.get();
        assert_eq!(hits, 0, "a disabled cache must never hit");
        // Identical traffic, identical decisions: the cache only changes
        // the cost of computing an answer, never the answer.
        assert_eq!(split, call_every_operation(&cached, 5));
    }
}
