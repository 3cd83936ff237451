//! Arena properties: for ANY sequence of allocs and frees (arbitrary
//! sizes, arbitrary free order, quota pressure), live slots never
//! overlap, every payload reads back intact, and once everything is
//! dropped the arena accounts zero bytes in flight — the no-leak
//! invariant the dispatch paths inherit through `ArenaSlot`'s RAII.
//! The arena's bytes start uninitialised, so two more tests pin what
//! that rests on: a slot reads only the bytes its own payload wrote, and
//! building an arena commits no memory its payloads have not touched.

use proptest::prelude::*;
use proptest::{collection, prop_assert, prop_assert_eq, proptest};
use secmod_ring::{ArenaRegion, ArenaSlot, ArgArena, ArgRef, INLINE_ARG_MAX, MAGAZINE_DEPTH};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Live slots never overlap and never tear: every payload reads back
    /// exactly as written no matter what was allocated or freed around
    /// it, and dropping everything returns bytes-in-flight to zero.
    /// Steps are `(kind, size, fill)` triples: kind < 3 allocates (3:2
    /// weight over frees), otherwise `fill` indexes the slot to free.
    #[test]
    fn alloc_free_never_overlaps_and_never_leaks(
        steps in collection::vec((0u8..5, 1usize..=4096, 0u8..=255), 1..120),
        capacity_kib in 1usize..=64,
    ) {
        let metrics = Arc::new(secmod_obs::ArenaMetrics::new());
        let arena = ArgArena::with_metrics(capacity_kib * 1024, Arc::clone(&metrics));
        // A quota that never binds: the arena alone decides what fits.
        let region = ArenaRegion::new(arena, usize::MAX);
        let mut live: Vec<(ArenaSlot, Vec<u8>)> = Vec::new();
        for (kind, size, fill) in steps {
            if kind < 3 {
                let payload = vec![fill; size];
                // A full arena refuses; that is the fallback path, not a
                // failure.
                if let Some(slot) = region.alloc_with(&payload) {
                    live.push((slot, payload));
                }
            } else if !live.is_empty() {
                let idx = (fill as usize * 31 + size) % live.len();
                live.swap_remove(idx);
            }
            // An overlap between any two live slots would corrupt one of
            // these read-backs.
            for (slot, payload) in &live {
                prop_assert_eq!(slot.as_slice(), payload.as_slice());
                prop_assert!(slot.is_current());
            }
        }
        live.clear();
        prop_assert_eq!(metrics.bytes_in_flight.get(), 0, "drops must settle the gauge");
        prop_assert_eq!(metrics.allocs.get(), metrics.frees.get(), "every alloc must be freed");
    }

    /// Region quotas are exact under arbitrary traffic: in-flight never
    /// exceeds the quota, and the region settles to zero once every slot
    /// is dropped.
    #[test]
    fn region_quota_is_exact_and_settles(
        sizes in collection::vec(1usize..=2048, 1..60),
        quota_kib in 1usize..=8,
    ) {
        let arena = ArgArena::with_capacity(1 << 20);
        let region = ArenaRegion::new(arena, quota_kib * 1024);
        let mut live = Vec::new();
        for (i, size) in sizes.iter().enumerate() {
            if let Some(slot) = region.alloc_with(&vec![i as u8; *size]) {
                live.push(slot);
            }
            prop_assert!(region.in_flight() <= region.quota());
            // Keep a rolling window so frees interleave with allocs.
            if live.len() > 8 {
                live.remove(0);
            }
        }
        live.clear();
        prop_assert_eq!(region.in_flight(), 0);
    }

    /// Magazine regions inherit the full no-alias / no-leak contract
    /// under ANY interleaving of allocs, frees (which park blocks in the
    /// magazine instead of freeing them), and explicit flushes — across
    /// TWO magazine regions sharing one arena, so a parked block handed
    /// to the wrong region's allocation would corrupt a read-back here.
    /// Invariants checked every step: live payloads read back intact,
    /// charged bytes (live + parked) never exceed the quota, parked
    /// bytes never exceed charged bytes; and once the slots are dropped
    /// each region's charge is exactly its parked bytes, with the
    /// region drops settling the arena gauge to zero and every alloc
    /// matched by a free.
    #[test]
    fn magazine_regions_never_alias_and_settle(
        steps in collection::vec((0u8..8, 0u8..2, 1usize..=4096, 0u8..=255), 1..120),
        quota_kib in 2usize..=16,
        depth in 1usize..=16,
    ) {
        let metrics = Arc::new(secmod_obs::ArenaMetrics::new());
        let arena = ArgArena::with_metrics(1 << 20, Arc::clone(&metrics));
        let regions = [
            ArenaRegion::with_magazine(Arc::clone(&arena), quota_kib * 1024, depth),
            ArenaRegion::with_magazine(Arc::clone(&arena), quota_kib * 1024, depth),
        ];
        let mut live: [Vec<(ArenaSlot, Vec<u8>)>; 2] = [Vec::new(), Vec::new()];
        for (kind, who, size, fill) in steps {
            let who = who as usize;
            match kind {
                // Alloc (4:3 weight over frees): quota/arena pressure is
                // the fallback path, not a failure.
                0..=3 => {
                    let payload: Vec<u8> =
                        (0..size).map(|i| fill.wrapping_add(i as u8)).collect();
                    if let Some(slot) = regions[who].alloc_with(&payload) {
                        live[who].push((slot, payload));
                    }
                }
                // Free: parks the block in the magazine (or frees it when
                // the stack is full), in arbitrary order.
                4..=6 => {
                    if !live[who].is_empty() {
                        let idx = (fill as usize * 31 + size) % live[who].len();
                        live[who].swap_remove(idx);
                    }
                }
                // Explicit flush: parked blocks go back to the shared
                // freelists mid-run.
                _ => {
                    regions[who].flush_magazine();
                }
            }
            for region in &regions {
                prop_assert!(region.in_flight() <= region.quota(), "quota exceeded");
                prop_assert!(
                    region.magazine_resident() <= region.in_flight(),
                    "parked bytes not covered by the charge"
                );
            }
            // An aliased block — parked in one region, live in another —
            // would corrupt one of these read-backs.
            for (slot, payload) in live.iter().flatten() {
                prop_assert_eq!(slot.as_slice(), payload.as_slice());
                prop_assert!(slot.is_current());
            }
        }
        for (region, live) in regions.iter().zip(live.iter_mut()) {
            live.clear();
            // With no live slots the only remaining charge is parked.
            prop_assert_eq!(region.in_flight(), region.magazine_resident());
        }
        drop(regions);
        prop_assert_eq!(metrics.bytes_in_flight.get(), 0, "region drop must flush parked blocks");
        prop_assert_eq!(metrics.allocs.get(), metrics.frees.get(), "every alloc must be freed");
    }

    /// `ArgRef` placement is representation-transparent: whatever mix of
    /// inline/arena/heap a payload lands in, the bytes compare equal to
    /// the copy-path representation — the property the dispatch
    /// coherence suites build on.
    #[test]
    fn argref_representations_agree_on_bytes(
        payloads in collection::vec((0usize..1500, 0u8..=255), 1..20),
    ) {
        let arena = ArgArena::with_capacity(1 << 20);
        let region = ArenaRegion::new(arena, 1 << 20);
        for (len, fill) in &payloads {
            let payload: Vec<u8> = (0..*len).map(|i| fill.wrapping_add(i as u8)).collect();
            let placed = ArgRef::place(&payload, Some(&region));
            let copied = ArgRef::from(payload.clone());
            prop_assert_eq!(&placed, &copied);
            prop_assert_eq!(placed.as_slice(), payload.as_slice());
            prop_assert_eq!(placed.is_arena(), payload.len() > INLINE_ARG_MAX);
            prop_assert_eq!(placed.into_vec(), payload);
        }
        prop_assert_eq!(region.in_flight(), 0);
    }
}

#[test]
fn a_recycled_block_reads_back_only_its_own_payload() {
    // Each pair lands in one size class: the second payload reuses the
    // block the first, longer one wrote, and must read back exactly
    // itself, none of the first one's tail.
    let pairs = [(64usize, 25usize), (128, 65), (4096, 2049), (65536, 32769)];
    for magazine in [false, true] {
        let metrics = Arc::new(secmod_obs::ArenaMetrics::new());
        let arena = ArgArena::with_metrics(1 << 20, Arc::clone(&metrics));
        let region = if magazine {
            ArenaRegion::with_magazine(arena, 1 << 20, MAGAZINE_DEPTH)
        } else {
            ArenaRegion::new(arena, 1 << 20)
        };
        for (long, short) in pairs {
            let case = format!("{long} B then {short} B, magazine {magazine}");
            let first = region.alloc_with(&vec![0xEE; long]).expect(&case);
            let (offset, _, _) = first.descriptor();
            drop(first);
            let payload: Vec<u8> = (0..short).map(|i| i as u8).collect();
            let second = region.alloc_with(&payload).expect(&case);
            assert_eq!(second.descriptor().0, offset, "{case}: block not reused");
            assert_eq!(second.len(), short, "{case}");
            assert_eq!(second.as_slice(), payload.as_slice(), "{case}");
            assert!(second.is_current(), "{case}");
        }
        region.flush_magazine();
        assert_eq!(region.in_flight(), 0, "magazine {magazine}");
        assert_eq!(metrics.bytes_in_flight.get(), 0, "magazine {magazine}");
        assert_eq!(
            metrics.allocs.get(),
            metrics.frees.get(),
            "magazine {magazine}"
        );
    }
}

/// This process's resident set in KiB, or `None` where
/// `/proc/self/status` has no `VmRSS` line.
fn vm_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn building_a_large_arena_commits_only_what_its_payloads_touch() {
    // A constructor that zero-fills the bytes fails this in debug builds.
    // In release the optimiser may fold that fill into `calloc`, whose
    // fresh pages are untouched too, so only the debug run tells the two
    // apart.
    const ARENA: usize = 256 << 20;
    const LIMIT_KIB: u64 = 64 << 10;
    let Some(before) = vm_rss_kib() else {
        println!("skipped: no VmRSS in /proc/self/status on this platform");
        return;
    };
    let arena = ArgArena::with_capacity(ARENA);
    let region = ArenaRegion::new(Arc::clone(&arena), usize::MAX);
    let slot = region
        .alloc_with(&[7u8; 4096])
        .expect("an empty arena has room");
    assert_eq!(slot.as_slice(), &[7u8; 4096]);
    let grown = vm_rss_kib()
        .expect("VmRSS was readable")
        .saturating_sub(before);
    assert!(
        grown < LIMIT_KIB,
        "a {} MiB arena grew VmRSS by {grown} KiB",
        ARENA >> 20
    );
}
