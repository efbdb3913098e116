//! Counting-allocator battery for the arena pools (`testing-internals`).
//!
//! Installs a counting wrapper around the system allocator and asserts
//! the two steady-state properties the arena layer promises:
//!
//! 1. Read-only operations (`get` / `contains` / `range`) perform
//!    **zero** global allocations once the session and the scan-stack
//!    pool are warm.
//! 2. A warm 50i/50d update loop reuses pooled blocks: the epoch
//!    collector recycles retired `Node`s/`Info`s back into the
//!    thread-local pools, so a warm round carves a small fraction of the
//!    fresh slab blocks a cold round does, and calls the global
//!    allocator a small fraction as often (bag seals and queue links
//!    only, not per-operation nodes).
//! 3. Once the tree is gone and the collector drained, `arena_trim`
//!    returns every slab.
//!
//! The whole battery runs in one `#[test]` because `#[global_allocator]`
//! counters are process-global: Rust's parallel test harness would
//! otherwise interleave counts from unrelated tests.

use pnb_bst::testing::{arena_carved_blocks, arena_slab_bytes, CountingAllocator};
use pnb_bst::{Handle, PnbBst};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn allocations() -> u64 {
    ALLOC.allocations()
}

const KEYS: u64 = 256;

/// One 50i/50d round over a bounded key set (interleaved, like the E1
/// update-only mix), with a collector checkpoint (re-pin + flush) so
/// retired memory can ripen and flow back into the pools.
fn churn_round(h: &mut Handle<'_, u64, u64>) {
    for k in 0..KEYS {
        h.insert(k, k);
        h.delete(&k);
        if k % 64 == 63 {
            h.refresh();
            h.flush();
        }
    }
}

#[test]
fn arena_steady_state_allocation_profile() {
    let tree: PnbBst<u64, u64> = PnbBst::new();
    let mut h = tree.pin();

    // ---- Phase 1: one cold round — pools are empty, every Node/Info
    // is a pool miss carved fresh from a slab. Slabs hand out many
    // blocks per global allocation, so count carved blocks.
    let cold_carve_start = arena_carved_blocks();
    churn_round(&mut h);
    let cold_carved = arena_carved_blocks() - cold_carve_start;
    assert!(
        cold_carved > 500,
        "a cold round must visibly carve fresh blocks (saw {cold_carved})"
    );

    // ---- Phase 2: saturate — keep churning so the two-epoch pipeline
    // fills and the free lists reach their working level.
    for _ in 0..40 {
        churn_round(&mut h);
    }

    // ---- Phase 3: warm churn — identical work, now pool-served. Only
    // burst imbalance while garbage ripens may carve, and only the
    // fallback paths may allocate (sealed-bag vectors, queue links), so
    // both per-round counts must collapse versus the cold round's block
    // demand. (The cold round's own allocator calls are no yardstick:
    // slabs serve its blocks in a handful of calls.)
    const WARM_ROUNDS: u64 = 20;
    let (warm_start, warm_carve_start) = (allocations(), arena_carved_blocks());
    for _ in 0..WARM_ROUNDS {
        churn_round(&mut h);
    }
    let warm_round = (allocations() - warm_start) / WARM_ROUNDS;
    let warm_carved = (arena_carved_blocks() - warm_carve_start) / WARM_ROUNDS;
    assert!(
        warm_carved * 4 <= cold_carved,
        "warm churn must be pool-served: {warm_carved}/round carved warm vs {cold_carved} cold"
    );
    assert!(
        warm_round * 4 <= cold_carved,
        "warm churn must be fallback-only: {warm_round} allocations/round warm vs {cold_carved} blocks cold"
    );

    // ---- Phase 4: read-only steady state — strictly zero.
    for k in 0..KEYS {
        h.insert(k, k);
    }
    // Warm the pooled scan stack and any lazy session state.
    assert_eq!(h.range(..).count(), KEYS as usize);
    let _ = h.get(&0);
    let read_start = allocations();
    for k in 0..KEYS {
        assert_eq!(h.get(&k), Some(k));
        assert!(h.contains(&k));
    }
    assert_eq!(h.range(8..=199).count(), 192);
    assert_eq!(h.range(..).count(), KEYS as usize);
    assert!(!h.contains(&(KEYS + 1)));
    let read = allocations() - read_start;
    assert_eq!(
        read, 0,
        "read-only get/contains/range steady state must not touch the global allocator"
    );

    assert_eq!(tree.check_invariants(), KEYS as usize);

    // ---- Phase 5: teardown — with the tree dropped and its garbage
    // recycled, every carved block is pooled on this thread or in the
    // spillover, so trim frees every slab.
    drop(h);
    drop(tree);
    pnb_bst::collector_drain(4);
    pnb_bst::arena_trim();
    assert_eq!(arena_slab_bytes(), 0, "trim must return every slab");
}
