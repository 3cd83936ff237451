//! Where the dispatch path allocates, and which thread frees — counted,
//! not timed.
//!
//! The rule under test: per call, producer and drainer share nothing but
//! the ring. A payload of at most `INLINE_ARG_MAX` bytes rides inside
//! the ring entry, so the only allocation a drained call makes is the
//! function body's own result `Vec` (as does a direct `sys_smod_call`
//! whose arguments the caller owns), a submission from a borrowed slice
//! makes none, a running plane's drainer makes that one and nothing per
//! sweep, idle sweeps included, and nothing allocated on one side of a
//! running plane is freed on the other.
//!
//! This binary holds exactly one `#[test]`: the cross-thread counter is
//! global to the process, and the test harness itself allocates on one
//! thread and frees on another whenever a test starts or finishes.

use secmod::kernel::plane::{DispatchPlane, PlaneConfig, PlaneHandle};
use secmod::kernel::SmodCallArgs;
use secmod::prelude::Credential;
use secmod::ring::{ArgRef, RingPairConfig, RingSet, SmodCallReq, SubmitError};
use secmod::world::{build_dispatch_kernel_with_clients, WorldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static CROSS_THREAD_FREES: AtomicU64 = AtomicU64::new(0);

/// The plane drainer's thread tag, once its completion hook has run there,
/// and the allocations that thread has made since.
static DRAINER: AtomicUsize = AtomicUsize::new(0);
static DRAINER_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by this thread; its address also names the
    /// thread. Const-initialised and without a destructor, so using it
    /// from inside the allocator allocates nothing and works for the
    /// whole life of the thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_tag() -> usize {
    ALLOCS.with(|count| count as *const Cell<u64> as usize)
}

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The system allocator, counting calls and remembering in a header in
/// front of every block which thread allocated it.
struct Counting;

impl Counting {
    /// The header's size: room for the tag, and a multiple of the
    /// block's alignment so the block behind it stays aligned.
    fn with_header(layout: Layout) -> (Layout, usize) {
        let header = layout.align().max(std::mem::size_of::<usize>());
        let full = Layout::from_size_align(layout.size() + header, header)
            .expect("a layout the caller could build, plus one alignment unit");
        (full, header)
    }
}

// SAFETY: every block is the system allocator's, `header` bytes into an
// allocation made with `with_header(layout)`; `dealloc` receives the
// same `layout` back, recomputes the same header size and returns
// exactly the allocation `alloc` obtained. The tag is written and read
// through the base pointer, which is aligned to at least `usize`.
// `realloc` is the default (alloc, copy, dealloc), so it needs no case.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let (full, header) = Counting::with_header(layout);
        let base = System.alloc(full);
        if base.is_null() {
            return base;
        }
        ALLOCS.with(|count| count.set(count.get() + 1));
        let tag = thread_tag();
        if DRAINER.load(Ordering::Relaxed) == tag {
            DRAINER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        (base as *mut usize).write(tag);
        base.add(header)
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        let (full, header) = Counting::with_header(layout);
        let base = block.sub(header);
        if (base as *const usize).read() != thread_tag() {
            CROSS_THREAD_FREES.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(base, full);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Submit `calls` through `handle` in bursts and reap every completion,
/// checking each result.
fn stream(handle: &PlaneHandle, proc_id: u32, calls: u64) {
    const BURST: u64 = 64;
    let (mut submitted, mut reaped) = (0u64, 0u64);
    while reaped < calls {
        let burst_end = calls.min(submitted + BURST);
        while submitted < burst_end {
            let args = submitted.to_le_bytes().to_vec();
            match handle.submit(proc_id, submitted, args) {
                Ok(()) => submitted += 1,
                Err(SubmitError::Full(_)) => break,
                Err(SubmitError::Detached(_)) => panic!("the plane is running"),
            }
        }
        while let Some(resp) = handle.reap() {
            assert!(resp.is_ok());
            let ret = u64::from_le_bytes(resp.ret_bytes().try_into().unwrap());
            assert_eq!(ret, resp.user_data + 1);
            reaped += 1;
        }
        std::thread::yield_now();
    }
}

#[test]
fn the_dispatch_path_allocates_and_frees_where_it_should() {
    const CALLS: u64 = 10_000;
    let dispatch = build_dispatch_kernel_with_clients(&WorldConfig::new(42), 1);
    let module = dispatch.module;
    let kernel = Arc::new(dispatch.kernel);
    let client = dispatch.clients[0];
    let allowed = dispatch.func_ids[1];
    let session = kernel.session_of(client).unwrap().id.0;

    // --- one thread: fill, `sys_smod_sweep`, reap -----------------------
    let set = RingSet::with_capacity(1);
    let ring = RingPairConfig {
        submission: 128,
        completion: 128,
    };
    let slot = set.register(session, client.0, ring).expect("register");
    let rings = set.get(slot).expect("rings");
    let drainer = kernel
        .spawn_process(
            "tripwire-drainer",
            Credential::root(),
            vec![0x90; 4096],
            2,
            2,
        )
        .expect("drainer");
    // Allocations made by `sweeps` rounds of `per_sweep` calls each. A
    // sweep has a fixed allocation cost of its own (its scratch
    // buffers), so the per-call count is read off the difference
    // between two round sizes.
    let rounds = |sweeps: u64, per_sweep: u64| {
        let before = allocs();
        for _ in 0..sweeps {
            for i in 0..per_sweep {
                let req = SmodCallReq {
                    session,
                    proc_id: allowed,
                    user_data: i,
                    args: ArgRef::from(i.to_le_bytes()),
                };
                set.submit(slot, req).expect("room");
            }
            let report = kernel.sys_smod_sweep(drainer, &set, 128).expect("sweep");
            assert_eq!(report.completed as u64, per_sweep);
            for i in 0..per_sweep {
                let resp = rings.cq.pop_spsc().expect("completion");
                assert_eq!(resp.ret_bytes(), (i + 1).to_le_bytes());
            }
        }
        allocs() - before
    };
    rounds(4, 100); // warm-up: decision tiers, lazily grown tables
    let (sweeps, small, large) = (CALLS / 50, 50, 100);
    let extra_calls = sweeps * (large - small);
    assert_eq!(
        rounds(sweeps, large) - rounds(sweeps, small),
        extra_calls,
        "a drained 8-byte call allocates once: the body's result `Vec`"
    );

    // --- one thread: `sys_smod_call` with arguments the caller owns ----
    // The argument `Vec`s are built before counting, so what is left is
    // the kernel's: resolving the caller's session allocates nothing, and
    // the body's result `Vec` is the one allocation per call.
    let owned = |n: u64| -> Vec<SmodCallArgs> {
        (0..n)
            .map(|i| SmodCallArgs {
                m_id: module,
                func_id: allowed,
                frame_pointer: 0,
                return_address: 0,
                args: i.to_le_bytes().to_vec(),
            })
            .collect()
    };
    let direct = |calls: Vec<SmodCallArgs>| {
        let before = allocs();
        for (i, call) in (0u64..).zip(calls) {
            let ret = kernel.sys_smod_call(client, call).expect("allowed");
            assert_eq!(ret, (i + 1).to_le_bytes());
        }
        allocs() - before
    };
    direct(owned(100)); // warm-up, as above
    assert_eq!(
        direct(owned(CALLS)),
        CALLS,
        "a direct call allocates once: the body's result `Vec`"
    );

    // --- a running plane: the submit side, then both sides -------------
    let plane = DispatchPlane::start(
        Arc::clone(&kernel),
        PlaneConfig::builder().drainers(1).build(),
    )
    .expect("plane");
    // The hook runs on the drainer after each sweep that answered
    // something: the first run names the drainer's thread to the
    // allocator.
    assert!(plane.on_completions(Arc::new(|| {
        let _ = DRAINER.compare_exchange(0, thread_tag(), Ordering::Relaxed, Ordering::Relaxed);
    })));
    let handle = plane.attach(client).expect("attach");
    stream(&handle, allowed, 1_000); // warm-up, as above
    assert_ne!(DRAINER.load(Ordering::Relaxed), 0, "the hook ran");

    let values: Vec<[u8; 8]> = (0..64u64).map(u64::to_le_bytes).collect();
    let calls: Vec<(u32, u64, &[u8])> = values
        .iter()
        .enumerate()
        .map(|(i, v)| (allowed, i as u64, v.as_slice()))
        .collect();
    let before = allocs();
    let accepted = handle.submit_many(&calls).expect("the plane is running");
    let on_submit = allocs() - before;
    assert_eq!(accepted, calls.len());
    assert_eq!(on_submit, 0, "borrowed slices go straight into the ring");
    let mut reaped = 0;
    while reaped < accepted {
        match handle.reap() {
            Some(resp) => {
                assert!(resp.is_ok());
                reaped += 1;
            }
            None => std::thread::yield_now(),
        }
    }

    // Depth-1 round trips, a pause between them: the drainer sweeps once
    // to answer each call and again, finding nothing, before it polls or
    // parks. A completion is published after its result `Vec` is made, so
    // once it is reaped the drainer's count covers that call.
    let before = DRAINER_ALLOCS.load(Ordering::Relaxed);
    for i in 0..CALLS / 10 {
        handle
            .submit(allowed, i, i.to_le_bytes().to_vec())
            .expect("room");
        let resp = loop {
            match handle.reap() {
                Some(resp) => break resp,
                None => std::thread::yield_now(),
            }
        };
        assert_eq!(resp.ret_bytes(), (i + 1).to_le_bytes());
        let pause = Instant::now();
        while pause.elapsed() < Duration::from_micros(5) {
            std::hint::spin_loop();
        }
    }
    assert_eq!(
        DRAINER_ALLOCS.load(Ordering::Relaxed) - before,
        CALLS / 10,
        "a drained call allocates once on the drainer: the body's result `Vec`; a sweep, idle or not, allocates nothing"
    );

    // Owned 8-byte arguments one way, the bodies' 8-byte results the
    // other: each `Vec` dies on the thread that made it.
    let before = CROSS_THREAD_FREES.load(Ordering::Relaxed);
    stream(&handle, allowed, CALLS);
    assert_eq!(
        CROSS_THREAD_FREES.load(Ordering::Relaxed) - before,
        0,
        "producer and drainer must not free each other's allocations"
    );
    drop(handle);
    plane.shutdown();
}
