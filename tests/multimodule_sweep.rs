//! Multi-module sweep coherence: one `sys_smod_sweep` over sessions of
//! N *different* modules — each with its own policy engine, function
//! table, and embedded gateway — must be observationally identical to N
//! per-module sweeps run sequentially: per session the same results in
//! the same order, and the *same decision counters* — per module the
//! gateway cache's misses, evictions and insertions, and the kernel's
//! gate hits and misses (each session resolved once per sweep, each
//! distinct decision missed exactly once, no cross-module pollution of
//! anything).
//!
//! Two identical multi-module kernels are built from the same seed; one
//! is driven with one ring set per module (sequential sweeps), the
//! other with a single combined ring set and a single sweep. The
//! property test draws an arbitrary per-module mix of allowed, denied
//! (`restricted`), and unknown-function requests — including modules
//! with no work at all, which must simply not be visited.

use proptest::prelude::*;
use proptest::{collection, prop_assert, prop_assert_eq, proptest};
use secmod::policy::cache::CacheConfig;
use secmod_kernel::smodreg::FunctionTable;
use secmod_kernel::{Credential, Kernel, Pid};
use secmod_module::builder::{FunctionSpec, ModuleBuilder};
use secmod_module::{ModuleId, SmodPackage, StubTable};
use secmod_policy::{Assertion, LicenseeExpr, PolicyEngine, Principal};
use secmod_ring::{RingPairConfig, RingSet, RingSlotId, SmodCallReq};

const MAX_MODULES: usize = 4;

/// One kernel hosting `n` independent modules, each with its own
/// policy, function table, client, and established session.
struct MultiModuleUniverse {
    kernel: Kernel,
    modules: Vec<ModuleId>,
    clients: Vec<Pid>,
    /// Per module: `[restricted, op1, op2]` — index 0 is denied by that
    /// module's policy.
    func_ids: Vec<Vec<u32>>,
}

fn universe(seed: u64, n: usize) -> MultiModuleUniverse {
    let kernel = Kernel::with_gate_config(
        secmod_kernel::CostModel::default(),
        CacheConfig {
            shards: 8,
            capacity: 512,
        },
    );
    kernel.tracer.set_enabled(false);
    let registrar = kernel
        .spawn_process("mm-registrar", Credential::root(), vec![0x90; 4096], 2, 2)
        .expect("spawn registrar");

    let mut modules = Vec::with_capacity(n);
    let mut clients = Vec::with_capacity(n);
    let mut func_ids = Vec::with_capacity(n);
    for m in 0..n {
        let name = format!("libmod{m}");
        let operations = ["restricted", "op1", "op2"];
        let mut builder = ModuleBuilder::new(&name, 1);
        for op in operations {
            builder.add_function(FunctionSpec::new(op, 64));
        }
        let image = builder.build(false).expect("build module image");
        let stub_table = StubTable::generate(&image);
        let ids: Vec<u32> = operations
            .iter()
            .map(|op| stub_table.by_name(op).expect("stub exists").func_id)
            .collect();
        let mut functions = FunctionTable::new();
        for &func_id in &ids {
            // Each module's body folds its own index into the answer, so
            // a completion served by the wrong module is caught by value.
            let tag = 1000 * (m as u64 + 1);
            functions.register(func_id, move |_ctx, args| {
                let v = u64::from_le_bytes(
                    args[..8]
                        .try_into()
                        .map_err(|_| secmod_kernel::Errno::EINVAL)?,
                );
                Ok((v + tag).to_le_bytes().to_vec())
            });
        }

        let tenant_key = format!("mm-tenant-key-{m}-{seed}").into_bytes();
        let tenant = Principal::from_key("tenant", &tenant_key);
        let mut policy = PolicyEngine::new();
        policy
            .add_assertion(
                Assertion::policy(LicenseeExpr::Single(tenant), "function != \"restricted\"")
                    .unwrap(),
            )
            .unwrap();

        let module_key = b"0123456789abcdef".to_vec();
        let nonce = [m as u8 + 1; 8];
        let enc = secmod_crypto::SelectiveEncryptor::new(&module_key, nonce).expect("encryptor");
        let package = SmodPackage::seal(&image, &enc, b"mm-mac-key").expect("seal");
        let module = kernel
            .sys_smod_add(
                registrar,
                package,
                secmod_kernel::smod::ModuleKeyDelivery::Raw {
                    key: module_key,
                    nonce,
                },
                b"mm-mac-key",
                policy,
                functions,
            )
            .expect("register module");

        let client = kernel
            .spawn_process(
                &format!("mm-client{m}"),
                Credential::user(2000 + m as u32, 200).with_smod_credential(&name, &tenant_key),
                vec![0x90; 4096],
                4,
                4,
            )
            .expect("spawn client");
        let (_session, handle) = kernel
            .sys_smod_start_session(client, module)
            .expect("start session");
        kernel.sys_smod_session_info(handle).expect("handle ready");
        kernel.sys_smod_handle_info(client).expect("handshake");

        modules.push(module);
        clients.push(client);
        func_ids.push(ids);
    }
    MultiModuleUniverse {
        kernel,
        modules,
        clients,
        func_ids,
    }
}

/// Per-module op lists: `plan[m]` is the (func index, arg) sequence
/// module `m`'s session submits. Indices past the table model unknown
/// function ids.
type Plan = Vec<Vec<(usize, u64)>>;

fn resolve_func(u: &MultiModuleUniverse, module: usize, func: usize) -> u32 {
    if func < u.func_ids[module].len() {
        u.func_ids[module][func]
    } else {
        u32::MAX
    }
}

fn spawn_drainer(u: &MultiModuleUniverse) -> Pid {
    u.kernel
        .spawn_process("mm-drainer", Credential::root(), vec![0x90; 4096], 2, 2)
        .expect("spawn drainer")
}

/// Register `module`'s session and submit its ops into `set`; the
/// cookie tags every entry `(module << 32) | index`.
fn load_module(
    u: &MultiModuleUniverse,
    set: &RingSet,
    module: usize,
    ops: &[(usize, u64)],
) -> RingSlotId {
    let client = u.clients[module];
    let session = u.kernel.session_of(client).unwrap().id.0;
    let slot = set
        .register(
            session,
            client.0,
            RingPairConfig {
                submission: ops.len(),
                completion: ops.len(),
            },
        )
        .unwrap();
    for (i, &(func, arg)) in ops.iter().enumerate() {
        set.submit(
            slot,
            SmodCallReq {
                session,
                proc_id: resolve_func(u, module, func),
                user_data: ((module as u64) << 32) | i as u64,
                args: arg.to_le_bytes().into(),
            },
        )
        .unwrap();
    }
    slot
}

/// Pop module `m`'s completions in order, checking the cookies.
fn collect(set: &RingSet, slot: RingSlotId, module: usize) -> Vec<(i32, Vec<u8>)> {
    let rings = set.get(slot).unwrap();
    let mut out = Vec::new();
    while let Some(resp) = rings.cq.pop_spsc() {
        assert_eq!(
            (resp.user_data >> 32) as usize,
            module,
            "module {module} reaped another module's completion"
        );
        assert_eq!(
            (resp.user_data & 0xFFFF_FFFF) as usize,
            out.len(),
            "module {module} completions reordered"
        );
        out.push((resp.errno, resp.into_ret()));
    }
    out
}

/// One sweep per module, in module order.
fn run_per_module(u: &MultiModuleUniverse, plan: &Plan) -> Vec<Vec<(i32, Vec<u8>)>> {
    let drainer = spawn_drainer(u);
    plan.iter()
        .enumerate()
        .map(|(m, ops)| {
            if ops.is_empty() {
                return Vec::new();
            }
            let set = RingSet::with_capacity(1);
            let slot = load_module(u, &set, m, ops);
            let report = u.kernel.sys_smod_sweep(drainer, &set, ops.len()).unwrap();
            assert_eq!(report.drained, ops.len());
            collect(&set, slot, m)
        })
        .collect()
}

/// One combined sweep over every module's session at once.
fn run_combined(u: &MultiModuleUniverse, plan: &Plan) -> Vec<Vec<(i32, Vec<u8>)>> {
    let set = RingSet::with_capacity(plan.len().max(1));
    let mut budget = 1usize;
    let slots: Vec<Option<RingSlotId>> = plan
        .iter()
        .enumerate()
        .map(|(m, ops)| {
            if ops.is_empty() {
                return None;
            }
            budget = budget.max(ops.len());
            Some(load_module(u, &set, m, ops))
        })
        .collect();
    let drainer = spawn_drainer(u);
    let report = u.kernel.sys_smod_sweep(drainer, &set, budget).unwrap();
    let expected: usize = plan.iter().map(Vec::len).sum();
    let ready: usize = plan.iter().filter(|ops| !ops.is_empty()).count();
    assert_eq!(report.drained, expected, "sweep lost or invented entries");
    assert_eq!(
        report.sessions_ready, ready,
        "the sweep must resolve each module's session exactly once"
    );
    plan.iter()
        .zip(&slots)
        .enumerate()
        .map(|(m, (_, slot))| match slot {
            Some(slot) => collect(&set, *slot, m),
            None => Vec::new(),
        })
        .collect()
}

/// The decision counters that do not depend on which cache tier answered.
/// The sharded tier's *hits* are left out: whether the thread-local L0
/// still held an entry (and so spared the sharded tier a lookup) depends
/// on the gateway's process-unique id and on which test ran on this
/// thread before, not on the sweep.
#[derive(Debug, PartialEq)]
struct DecisionCounters {
    /// Per module: the sharded tier's misses, evictions and insertions.
    per_module: Vec<(u64, u64, u64)>,
    /// The kernel's gate hits and misses.
    gate: (u64, u64),
}

fn cache_counters(u: &MultiModuleUniverse) -> DecisionCounters {
    let per_module = u
        .modules
        .iter()
        .map(|&m| {
            let s = u
                .kernel
                .registry
                .get(m)
                .expect("module registered")
                .gateway
                .cache_stats();
            (s.misses, s.evictions, s.insertions)
        })
        .collect();
    let metrics = &u.kernel.metrics;
    DecisionCounters {
        per_module,
        gate: (metrics.gate_hits.get(), metrics.gate_misses.get()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// One sweep over sessions of N different modules equals N
    /// per-module sweeps run sequentially: identical per-session results
    /// in identical order, identical decision counters
    /// (`cache_counters`), and no more simulated cost than the N sweeps it subsumes (modulo
    /// its own single trap when every per-module sweep was skipped).
    #[test]
    fn combined_sweep_equals_per_module_sweeps(
        seed in 0u64..1_000,
        plan in collection::vec(
            collection::vec((0usize..4, 0u64..10_000), 0..24),
            1..=MAX_MODULES,
        ),
    ) {
        let sequential_u = universe(seed, plan.len());
        let combined_u = universe(seed, plan.len());
        prop_assert_eq!(&sequential_u.func_ids, &combined_u.func_ids);

        let t0 = sequential_u.kernel.clock.now_ns();
        let sequential = run_per_module(&sequential_u, &plan);
        let sequential_ns = sequential_u.kernel.clock.now_ns() - t0;

        let t0 = combined_u.kernel.clock.now_ns();
        let combined = run_combined(&combined_u, &plan);
        let combined_ns = combined_u.kernel.clock.now_ns() - t0;

        prop_assert_eq!(sequential, combined, "combined sweep diverged");
        prop_assert_eq!(
            cache_counters(&sequential_u),
            cache_counters(&combined_u),
            "decision counters diverged"
        );
        let trap = combined_u.kernel.cost.syscall_trap_ns;
        prop_assert!(
            combined_ns <= sequential_ns + trap,
            "combined {} ns vs sequential {} ns (+{} trap)",
            combined_ns, sequential_ns, trap
        );
    }
}

/// The values themselves prove module isolation: module m's body folds
/// `1000 * (m + 1)` into every answer, so a completion routed through
/// the wrong module's function table is caught by value, not just by
/// cookie.
#[test]
fn each_module_answers_with_its_own_body() {
    let u = universe(5, 3);
    let plan: Plan = (0..3)
        .map(|_| (0..16).map(|i| (1usize, i as u64)).collect())
        .collect();
    let combined = run_combined(&u, &plan);
    for (m, per_module) in combined.iter().enumerate() {
        assert_eq!(per_module.len(), 16);
        for (i, (errno, ret)) in per_module.iter().enumerate() {
            assert_eq!(*errno, 0);
            assert_eq!(
                u64::from_le_bytes(ret.clone().try_into().unwrap()),
                i as u64 + 1000 * (m as u64 + 1),
                "module {m} entry {i} was answered by a foreign body"
            );
        }
    }
}

/// Denials are per-module policy decisions: `restricted` is denied by
/// every module's own engine, through its own gateway.
#[test]
fn restricted_is_denied_per_module() {
    let u = universe(9, 2);
    let plan: Plan = vec![vec![(0, 1), (1, 2)], vec![(1, 3), (0, 4)]];
    let combined = run_combined(&u, &plan);
    assert_eq!(combined[0][0].0, secmod_kernel::Errno::EACCES.code());
    assert_eq!(combined[0][1].0, 0);
    assert_eq!(combined[1][0].0, 0);
    assert_eq!(combined[1][1].0, secmod_kernel::Errno::EACCES.code());
}
