//! Per-thread, epoch-integrated pools over shared slabs for the
//! hot-path allocations.
//!
//! The paper assumes a garbage-collected runtime, so its pseudocode
//! freely allocates one `Info` plus one-to-three `Node`s per update
//! attempt. Forwarding each of those to the global allocator makes
//! `malloc`/`free` the dominant per-operation cost of update-heavy
//! workloads — worse, epoch-deferred frees run on whichever thread
//! performs the collection pass, so the global allocator also pays
//! cross-thread arena traffic for nearly every retirement.
//!
//! This module closes the loop instead with a **two-level pool**:
//! every `Node`/`Info` allocation first tries a thread-local free list
//! keyed by layout class; the epoch collector returns ripe memory
//! *back to a pool* through the typed
//! [`crossbeam_epoch::Guard::defer_recycle`] hook rather than freeing
//! it. Because ripe garbage lands in bursts on whichever thread ran
//! the collection pass, each class also has a lock-free **global
//! spillover stack** of block chunks: overflowing locals push surplus
//! there, and a thread whose local list runs dry pulls a chunk back.
//! After warm-up, a steady-state update loop allocates from and
//! recycles into pools only.
//!
//! # Where fresh blocks come from
//!
//! A class whose pools are empty does not call the global allocator
//! per block. It **carves** blocks out of a per-class *slab* shared by
//! all threads, [`CARVE_RUN`] blocks per claim of a short spin lock, so
//! blocks are packed `size_of::<T>()` apart with no allocator header
//! and the lock is rare. A class's slabs grow geometrically from
//! [`MIN_SLAB`] to [`HUGE_SLAB`]; each 2 MiB slab is 2 MiB-aligned, and
//! once a class holds [`HUGE_ADVICE_FROM`] its further slabs are
//! advised `MADV_HUGEPAGE` on Linux, so one TLB entry covers 2 MiB of
//! tree instead of 4 KiB — a big tree's descents stop paying a TLB miss
//! per level. (Elsewhere, or with transparent huge pages off, the
//! advice does nothing and only the packing remains.) Only a layout
//! that could not get a spillover slot allocates block by block.
//!
//! # Why this is sound
//!
//! * A slab block never reaches the global allocator on its own: every
//!   release path — including thread teardown, where the thread-local
//!   pools are gone — returns it to a pool. Slabs are freed whole, by
//!   [`trim`], only when every block carved from them is pooled.
//! * Recycling obeys the same two-epoch rule as freeing: a block enters
//!   a free list only when `defer_recycle` proves no pinned thread can
//!   still reference it, so reuse introduces no ABA hazard that freeing
//!   to `malloc` (which also reuses addresses) would not.
//! * Free lists hold *raw memory*, not values: the destructor runs
//!   before pooling ([`recycle_raw`], [`free_now`]), and [`alloc`]
//!   writes a fresh value before handing the block out.
//! * Blocks are shared across `T`s of identical size/alignment (e.g.
//!   `Node<K, V>` for different small `K`/`V`); a block only ever holds
//!   values of its class's layout.
//!
//! Local lists spill past [`LOCAL_CAP`] blocks; exiting threads hand
//! their pools to the spillover so survivors inherit the warm memory.
//! The pools retain their peak working set by design — [`trim`]
//! returns the slabs whose blocks are all pooled to the global
//! allocator at workload boundaries. The `stats` feature adds
//! process-global hit/miss/recycle counters ([`ArenaStats`]).

use std::alloc::{alloc as global_alloc, dealloc as global_dealloc, handle_alloc_error, Layout};
use std::cell::{RefCell, UnsafeCell};
use std::marker::PhantomData;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize};

/// Split point for a thread's free list: past this, half the list is
/// packaged into a [`Chunk`] and pushed onto the class's global
/// spillover stack. Ripe garbage arrives in collection-pass bursts on
/// whichever thread ran the pass; the spillover is what routes that
/// surplus to the threads that are actually allocating.
const LOCAL_CAP: usize = 4096;

/// Blocks per spillover chunk (= `LOCAL_CAP / 2`).
const CHUNK_BLOCKS: usize = 2048;

/// Upper bound on pooled scan-stack buffers per thread.
const MAX_STACK_BUFS: usize = 8;

/// Blocks a thread carves from its class's shared slab per claim of the
/// slab lock: the lock is then taken once per run, not once per block.
const CARVE_RUN: usize = 64;

/// A class's first slab. Each further slab doubles, up to
/// [`HUGE_SLAB`], so a class that stays small maps little memory.
const MIN_SLAB: usize = 64 << 10;

/// The largest slab: one 2 MiB huge page, aligned to its size.
const HUGE_SLAB: usize = 2 << 20;

/// A class's 2 MiB slabs are advised `MADV_HUGEPAGE` once it already
/// holds this much: a huge page is resident as soon as it is touched,
/// so the newest, partly carved slab costs up to 2 MiB, which only a
/// large class earns back in TLB reach.
const HUGE_ADVICE_FROM: usize = 16 << 20;

/// Alignment of the smaller slabs.
const PAGE: usize = 4096;

/// One layout class: a free list of uniform raw blocks, plus the
/// uncarved rest of the run this thread last carved from the class's
/// slab.
struct Class {
    layout: Layout,
    free: Vec<*mut u8>,
    /// Next block of the current run; valid while `run_left > 0`.
    run: *mut u8,
    run_left: usize,
}

impl Class {
    /// A block for one allocation: the free list, then this thread's
    /// run, then a spillover chunk, then a fresh run carved from the
    /// shared slab.
    fn take(&mut self) -> *mut u8 {
        if let Some(raw) = self.free.pop() {
            counters::hit();
            return raw;
        }
        if self.run_left == 0 {
            // Local miss: pull a spillover chunk before carving — this
            // is what rebalances bursts of ripe garbage from the
            // collecting thread to the allocating ones.
            let global = global_class(self.layout);
            if let Some(refill) = global.and_then(GlobalClass::pop_blocks) {
                self.free = refill;
                if let Some(raw) = self.free.pop() {
                    counters::hit();
                    return raw;
                }
            }
            let Some(g) = global else {
                counters::miss();
                return fresh_block(self.layout);
            };
            (self.run, self.run_left) = g.with_slabs(|s| s.carve(self.layout, CARVE_RUN));
        }
        counters::miss();
        let raw = self.run;
        self.run = raw.wrapping_add(self.layout.size());
        self.run_left -= 1;
        raw
    }

    /// Take every block this thread holds for the class: the free list
    /// and the rest of the run.
    fn drain(&mut self) -> Vec<*mut u8> {
        let mut blocks = std::mem::take(&mut self.free);
        let size = self.layout.size();
        blocks.extend((0..self.run_left).map(|i| self.run.wrapping_add(i * size)));
        self.run_left = 0;
        blocks
    }
}

/// A thread's pools: a handful of layout classes (one per concrete
/// `Node`/`Info` instantiation — linear scan beats hashing at this
/// cardinality) plus recycled scan-stack buffers.
#[derive(Default)]
struct Pools {
    classes: Vec<Class>,
    stacks: Vec<Vec<*const ()>>,
}

impl Pools {
    fn class_mut(&mut self, layout: Layout) -> &mut Class {
        let idx = match self.classes.iter().position(|c| c.layout == layout) {
            Some(i) => i,
            None => {
                self.classes.push(Class {
                    layout,
                    free: Vec::new(),
                    run: std::ptr::null_mut(),
                    run_left: 0,
                });
                self.classes.len() - 1
            }
        };
        &mut self.classes[idx]
    }
}

impl Drop for Pools {
    fn drop(&mut self) {
        // Thread exit: hand every pooled block to the global spillover
        // so surviving threads inherit the warm memory (benchmark
        // drivers respawn worker threads constantly).
        for c in &mut self.classes {
            let blocks = c.drain();
            if !blocks.is_empty() {
                return_blocks(c.layout, blocks);
            }
        }
    }
}

thread_local! {
    // const-init: keeps the TLS access on the fast path (no lazy-init
    // branch) — this is touched several times per tree operation.
    static POOLS: RefCell<Pools> = const {
        RefCell::new(Pools {
            classes: Vec::new(),
            stacks: Vec::new(),
        })
    };
}

// ---------------------------------------------------------------------------
// Global spillover (second pool level) and the shared slabs
// ---------------------------------------------------------------------------

/// A batch of free blocks travelling between threads on a class's
/// spillover stack.
struct Chunk {
    next: *mut Chunk,
    blocks: Vec<*mut u8>,
}

/// Global side of one layout class: a Treiber stack of [`Chunk`]s, and
/// the slabs its blocks are carved from.
///
/// Pops take the *entire* stack with one `swap(null)` — the popper then
/// owns every node outright, so there is no ABA window and no
/// use-after-free on `next` traversal (the classic Treiber pop hazard
/// never arises). Unabsorbed chunks are re-pushed.
struct GlobalClass {
    /// Claim/match state: 0 = free slot, 1 = mid-claim, 2 = ready.
    state: AtomicUsize,
    size: AtomicUsize,
    align: AtomicUsize,
    head: AtomicPtr<Chunk>,
    /// Spin lock over `slabs`: held for one carve or one trim.
    carving: AtomicBool,
    slabs: UnsafeCell<Slabs>,
}

/// The slabs of one class. Blocks are carved in address order from the
/// newest slab; older slabs are fully carved.
struct Slabs {
    /// Every live slab, oldest first.
    mapped: Vec<Slab>,
    /// Next uncarved block of the newest slab, and how many whole
    /// blocks it has left.
    cursor: *mut u8,
    left: usize,
    /// Size of the next slab to map.
    next_bytes: usize,
    /// Blocks carved over the process's life.
    carved: u64,
}

#[derive(Clone, Copy)]
struct Slab {
    base: *mut u8,
    layout: Layout,
}

impl Slabs {
    const fn new() -> Self {
        Slabs {
            mapped: Vec::new(),
            cursor: std::ptr::null_mut(),
            left: 0,
            next_bytes: MIN_SLAB,
            carved: 0,
        }
    }

    /// Carve up to `want` consecutive blocks (at least one), mapping a
    /// new slab when the newest is used up.
    fn carve(&mut self, layout: Layout, want: usize) -> (*mut u8, usize) {
        if self.left == 0 {
            self.map(layout);
        }
        let n = self.left.min(want);
        let start = self.cursor;
        self.cursor = start.wrapping_add(n * layout.size());
        self.left -= n;
        self.carved += n as u64;
        (start, n)
    }

    fn map(&mut self, layout: Layout) {
        let bytes = self.next_bytes.max(layout.size());
        let align = if bytes >= HUGE_SLAB { HUGE_SLAB } else { PAGE }.max(layout.align());
        let slab = Layout::from_size_align(bytes, align).expect("slab layouts are valid");
        // SAFETY: non-zero size.
        let base = unsafe { global_alloc(slab) };
        if base.is_null() {
            handle_alloc_error(slab);
        }
        let held: usize = self.mapped.iter().map(|s| s.layout.size()).sum();
        if bytes >= HUGE_SLAB && held >= HUGE_ADVICE_FROM {
            advise_huge_pages(base, bytes);
        }
        self.mapped.push(Slab { base, layout: slab });
        self.cursor = base;
        self.left = bytes / layout.size();
        self.next_bytes = (bytes * 2).min(HUGE_SLAB);
    }

    /// Unregister every slab all of whose carved blocks are in
    /// `pooled` (sorted by address) and return them.
    fn release_pooled(&mut self, size: usize, pooled: &[*mut u8]) -> Vec<Slab> {
        // Only the newest slab can be partly carved, and only while
        // the cursor is live.
        let newest = self
            .mapped
            .last()
            .map(|s| s.base)
            .filter(|_| !self.cursor.is_null());
        let cursor = self.cursor;
        let mut freed = Vec::new();
        self.mapped.retain(|slab| {
            let carved_end = if Some(slab.base) == newest {
                cursor
            } else {
                slab.base.wrapping_add(slab.layout.size() / size * size)
            };
            let inside = pooled.partition_point(|&p| p < carved_end)
                - pooled.partition_point(|&p| p < slab.base);
            let all_pooled = inside == (carved_end as usize - slab.base as usize) / size;
            if all_pooled {
                freed.push(*slab);
            }
            !all_pooled
        });
        if newest.is_some() && self.mapped.last().map(|s| s.base) != newest {
            // The newest slab went: the next carve maps a fresh one.
            self.cursor = std::ptr::null_mut();
            self.left = 0;
        }
        if self.mapped.is_empty() {
            self.next_bytes = MIN_SLAB;
        }
        freed
    }
}

/// Ask the kernel to back `[base, base + len)` with transparent huge
/// pages. Advice only: if huge pages are off or the call fails, the
/// slab keeps working on base pages.
#[cfg(target_os = "linux")]
fn advise_huge_pages(base: *mut u8, len: usize) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: `[base, base + len)` is a page-aligned allocation this
    // module owns; MADV_HUGEPAGE changes neither its contents nor its
    // protection.
    unsafe { madvise(base.cast(), len, MADV_HUGEPAGE) };
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_base: *mut u8, _len: usize) {}

impl GlobalClass {
    const fn new() -> Self {
        GlobalClass {
            state: AtomicUsize::new(0),
            size: AtomicUsize::new(0),
            align: AtomicUsize::new(0),
            head: AtomicPtr::new(std::ptr::null_mut()),
            carving: AtomicBool::new(false),
            slabs: UnsafeCell::new(Slabs::new()),
        }
    }

    /// The layout of a ready (`state == 2`) slot.
    fn layout(&self) -> Layout {
        Layout::from_size_align(self.size.load(Relaxed), self.align.load(Relaxed))
            .expect("registered class layouts are valid")
    }

    fn push_chunk(&self, blocks: Vec<*mut u8>) {
        let chunk = Box::into_raw(Box::new(Chunk {
            next: std::ptr::null_mut(),
            blocks,
        }));
        loop {
            let head = self.head.load(Relaxed);
            // SAFETY: `chunk` is unpublished — we still own it.
            unsafe { (*chunk).next = head };
            // Release: publishes the chunk's contents to the popper.
            if self
                .head
                .compare_exchange_weak(head, chunk, Release, Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Take one chunk's worth of blocks, re-pushing any surplus chunks.
    fn pop_blocks(&self) -> Option<Vec<*mut u8>> {
        // A plain load first: an empty stack costs no cache-line
        // ownership (carving threads find it empty on every run).
        if self.head.load(Relaxed).is_null() {
            return None;
        }
        // Acquire pairs with the push's Release; after the swap the
        // whole chain is exclusively ours.
        let mut head = self.head.swap(std::ptr::null_mut(), AcqRel);
        if head.is_null() {
            return None;
        }
        // SAFETY: exclusive ownership of every node in the chain.
        let first = unsafe { Box::from_raw(head) };
        head = first.next;
        while !head.is_null() {
            let chunk = unsafe { Box::from_raw(head) };
            head = chunk.next;
            self.push_chunk(chunk.blocks);
        }
        Some(first.blocks)
    }

    /// Run `f` on the slabs under the spin lock.
    fn with_slabs<R>(&self, f: impl FnOnce(&mut Slabs) -> R) -> R {
        // Acquire/Release: each holder sees the previous holder's
        // writes to `slabs`.
        while self
            .carving
            .compare_exchange_weak(false, true, Acquire, Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        // SAFETY: the flag grants exclusive access until it is cleared.
        let r = f(unsafe { &mut *self.slabs.get() });
        self.carving.store(false, Release);
        r
    }

    /// Free every slab whose carved blocks are all in `pooled` — blocks
    /// the caller owns — and push the rest of `pooled` back onto the
    /// spillover.
    fn trim(&self, mut pooled: Vec<*mut u8>) {
        pooled.sort_unstable();
        let size = self.layout().size();
        let mut freed = self.with_slabs(|s| s.release_pooled(size, &pooled));
        freed.sort_unstable_by_key(|s| s.base);
        pooled.retain(|&p| {
            let i = freed.partition_point(|s| s.base <= p);
            i == 0 || p >= freed[i - 1].base.wrapping_add(freed[i - 1].layout.size())
        });
        for blocks in pooled.chunks(CHUNK_BLOCKS) {
            self.push_chunk(blocks.to_vec());
        }
        for slab in freed {
            // SAFETY: allocated with exactly this layout in `map`, and
            // every block carved from it was in `pooled`, which the
            // caller owned: nothing else can reach the slab.
            unsafe { global_dealloc(slab.base, slab.layout) };
        }
    }
}

// SAFETY: the raw pointers inside are either atomics, owned blocks
// whose cross-thread hand-off is exactly what this type mediates, or
// `slabs`, which only the holder of the `carving` spin lock touches.
unsafe impl Sync for GlobalClass {}

/// Fixed global registry of spillover classes (a process uses a couple
/// of `Node`/`Info` layouts; 16 slots is generous). Lock-free: slots
/// are claimed with a 0→1→2 state CAS; a full registry just means that
/// layout degrades to thread-local pooling over per-block allocation.
static GLOBAL_CLASSES: [GlobalClass; 16] = [const { GlobalClass::new() }; 16];

fn global_class(layout: Layout) -> Option<&'static GlobalClass> {
    'slots: for slot in &GLOBAL_CLASSES {
        loop {
            match slot.state.load(Acquire) {
                0 => {
                    if slot.state.compare_exchange(0, 1, AcqRel, Acquire).is_ok() {
                        slot.size.store(layout.size(), Relaxed);
                        slot.align.store(layout.align(), Relaxed);
                        // Release: readers matching on state == 2 see
                        // the layout fields.
                        slot.state.store(2, Release);
                        return Some(slot);
                    }
                    // Lost the claim: re-read the slot (now 1 or 2).
                }
                // Mid-claim by another thread: its layout may be ours.
                // The window is two plain stores — spin until the slot
                // is ready rather than skipping ahead, which could
                // claim a duplicate slot for the same layout and
                // permanently shadow this one (stranding its chunks).
                1 => std::hint::spin_loop(),
                _ => {
                    if slot.size.load(Relaxed) == layout.size()
                        && slot.align.load(Relaxed) == layout.align()
                    {
                        return Some(slot);
                    }
                    continue 'slots;
                }
            }
        }
    }
    None
}

/// The ready slots of the registry.
fn registered_classes() -> impl Iterator<Item = &'static GlobalClass> {
    GLOBAL_CLASSES
        .iter()
        .filter(|slot| slot.state.load(Acquire) == 2)
}

/// One block straight from the global allocator: only for a layout
/// without a spillover slot (full registry), whose blocks are never
/// carved.
fn fresh_block(layout: Layout) -> *mut u8 {
    // SAFETY: `alloc` asserts a non-zero size.
    let raw = unsafe { global_alloc(layout) };
    if raw.is_null() {
        handle_alloc_error(layout);
    }
    raw
}

/// Return pooled blocks that no thread-local list will take: to the
/// class's spillover, or — for a layout without one, whose blocks came
/// from the global allocator one by one — to the allocator.
fn return_blocks(layout: Layout, blocks: Vec<*mut u8>) {
    match global_class(layout) {
        Some(g) => g.push_chunk(blocks),
        None => {
            for p in blocks {
                // SAFETY: without a slot the class never carves, so
                // each block was allocated alone with `layout`.
                unsafe { global_dealloc(p, layout) };
            }
        }
    }
}

/// Allocate a `T` from the current thread's pool — refilled from the
/// class's global spillover on a miss, carved from the class's slab as
/// the final fallback — and initialize it with `value`. Release the
/// block with [`free_now`] or retire it through `defer_recycle` +
/// [`recycle_raw`]; never with `Box::from_raw` or the global allocator.
pub(crate) fn alloc<T>(value: T) -> *mut T {
    let layout = Layout::new::<T>();
    debug_assert!(layout.size() > 0, "arena does not pool ZSTs");
    // `try_with` so reclamation running during thread teardown (after
    // this TLS slot is gone) still gets a block: carving from the
    // shared slab needs no thread-local state.
    let raw = POOLS
        .try_with(|p| p.borrow_mut().class_mut(layout).take())
        .unwrap_or_else(|_| {
            counters::miss();
            match global_class(layout) {
                Some(g) => g.with_slabs(|s| s.carve(layout, 1)).0,
                None => fresh_block(layout),
            }
        });
    let ptr = raw as *mut T;
    // SAFETY: an exclusively owned, properly aligned, uninitialized
    // block of `T`'s layout.
    unsafe { ptr.write(value) };
    ptr
}

/// Run `T`'s destructor and return the block to the current thread's
/// pool. For allocations that were never published — the caller must be
/// the sole owner (the immediate-free counterpart of [`recycle_raw`]).
pub(crate) fn free_now<T>(ptr: *mut T) {
    // SAFETY: caller owns `ptr` exclusively (see doc contract).
    unsafe {
        std::ptr::drop_in_place(ptr);
        release(ptr as *mut u8, Layout::new::<T>());
    }
}

/// The `defer_recycle` hook: destroy the value and pool the memory on
/// whichever thread runs the collection pass.
///
/// # Safety
///
/// `ptr` must be a live, exclusively-owned allocation of `T` from
/// [`alloc`] (the epoch collector guarantees exclusivity when it runs
/// ripe bags).
pub(crate) unsafe fn recycle_raw<T>(ptr: *mut T) {
    // Destructor first: it may itself allocate or defer, so it must run
    // outside the pool borrow.
    unsafe {
        std::ptr::drop_in_place(ptr);
        release(ptr as *mut u8, Layout::new::<T>());
    }
}

/// Pool a raw block. When the thread's free list passes [`LOCAL_CAP`],
/// half of it spills to the class's global stack (other threads pull it
/// back on their misses); mid-teardown, the block goes straight to the
/// spillover.
///
/// # Safety
///
/// `raw` must come from [`alloc`] with `layout` and be exclusively owned.
unsafe fn release(raw: *mut u8, layout: Layout) {
    let pooled = POOLS
        .try_with(|p| {
            let mut p = p.borrow_mut();
            let class = p.class_mut(layout);
            class.free.push(raw);
            if class.free.len() >= LOCAL_CAP {
                let spill: Vec<*mut u8> = class.free.split_off(class.free.len() - CHUNK_BLOCKS);
                return_blocks(layout, spill);
            }
        })
        .is_ok();
    if pooled {
        counters::recycled(layout.size() as u64);
    } else {
        return_blocks(layout, vec![raw]);
    }
}

// ---------------------------------------------------------------------------
// Pooled scan stacks
// ---------------------------------------------------------------------------

/// A pooled descent stack of raw node pointers, used by the range-scan
/// traversals so a warm read-only scan performs **zero** global
/// allocations: the buffer is borrowed from the thread's pool on
/// construction and returned on drop. Type-erased to `*const ()` so one
/// buffer serves every `Node<K, V>` instantiation.
pub(crate) struct ScanStack<T> {
    buf: Vec<*const ()>,
    _marker: PhantomData<*const T>,
}

impl<T> ScanStack<T> {
    pub(crate) fn new() -> Self {
        let buf = POOLS
            .try_with(|p| p.borrow_mut().stacks.pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        ScanStack {
            buf,
            _marker: PhantomData,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, ptr: *const T) {
        self.buf.push(ptr as *const ());
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<*const T> {
        self.buf.pop().map(|p| p as *const T)
    }

    /// Read the entry `i` positions below the top without popping
    /// (`i == 0` is the top). Used by the batch prefix stack, which
    /// resumes descents from retained frames rather than consuming them.
    #[inline]
    pub(crate) fn peek_from_top(&self, i: usize) -> Option<*const T> {
        let n = self.buf.len();
        if i < n {
            Some(self.buf[n - 1 - i] as *const T)
        } else {
            None
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }
}

impl<T> Drop for ScanStack<T> {
    fn drop(&mut self) {
        if self.buf.capacity() == 0 {
            return; // nothing worth pooling
        }
        let buf = std::mem::take(&mut self.buf);
        let _ = POOLS.try_with(|p| {
            let mut p = p.borrow_mut();
            if p.stacks.len() < MAX_STACK_BUFS {
                let mut buf = buf;
                buf.clear();
                p.stacks.push(buf);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Counters (stats feature)
// ---------------------------------------------------------------------------

/// Process-global arena counters, exposed through `arena_stats` (a
/// `pnb_bst` re-export that exists with the `stats` feature).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Allocations served from a thread-local free list or a spillover
    /// chunk: reused blocks.
    pub pool_hits: u64,
    /// Allocations that took a fresh block, carved from a slab.
    pub pool_misses: u64,
    /// Bytes returned to thread-local free lists by the collector.
    pub recycled_bytes: u64,
}

#[cfg(feature = "stats")]
mod counters {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    pub(super) static HITS: AtomicU64 = AtomicU64::new(0);
    pub(super) static MISSES: AtomicU64 = AtomicU64::new(0);
    pub(super) static RECYCLED: AtomicU64 = AtomicU64::new(0);

    #[inline]
    pub(super) fn hit() {
        HITS.fetch_add(1, Relaxed);
    }
    #[inline]
    pub(super) fn miss() {
        MISSES.fetch_add(1, Relaxed);
    }
    #[inline]
    pub(super) fn recycled(bytes: u64) {
        RECYCLED.fetch_add(bytes, Relaxed);
    }
}

#[cfg(not(feature = "stats"))]
mod counters {
    #[inline(always)]
    pub(super) fn hit() {}
    #[inline(always)]
    pub(super) fn miss() {}
    #[inline(always)]
    pub(super) fn recycled(_bytes: u64) {}
}

/// Return memory to the global allocator: every slab all of whose
/// blocks are pooled by *this thread* or in the global spillover is
/// freed. Blocks of slabs that are still partly in use — by live
/// structures, or pooled by other threads — stay pooled. A class left
/// with no slabs starts growing again from the smallest slab.
///
/// The pools deliberately retain their peak working set (that is what
/// makes warm updates allocation-free), which also means that memory is
/// invisible to the rest of the process until trimmed. Call this at
/// workload boundaries — e.g. between structures in a benchmark
/// harness, after tearing down the last tree and draining the collector
/// — when the retained footprint matters more than the next tree's
/// warm-up.
pub fn trim() {
    let mut local: Vec<(Layout, Vec<*mut u8>)> = POOLS
        .try_with(|p| {
            let mut p = p.borrow_mut();
            p.stacks.clear();
            p.classes
                .iter_mut()
                .map(|c| (c.layout, c.drain()))
                .collect()
        })
        .unwrap_or_default();
    for slot in registered_classes() {
        let layout = slot.layout();
        let mut pooled = match local.iter().position(|(l, _)| *l == layout) {
            Some(i) => local.swap_remove(i).1,
            None => Vec::new(),
        };
        while let Some(blocks) = slot.pop_blocks() {
            pooled.extend(blocks);
        }
        slot.trim(pooled);
    }
    // What is left belongs to layouts without a slot: per-block memory.
    for (layout, blocks) in local {
        return_blocks(layout, blocks);
    }
}

/// Bytes currently held in slabs, over all classes.
#[cfg(feature = "testing-internals")]
pub(crate) fn slab_bytes() -> usize {
    registered_classes()
        .map(|g| g.with_slabs(|s| s.mapped.iter().map(|sl| sl.layout.size()).sum::<usize>()))
        .sum()
}

/// Blocks carved from slabs over the process's life, over all classes.
#[cfg(feature = "testing-internals")]
pub(crate) fn carved_blocks() -> u64 {
    registered_classes()
        .map(|g| g.with_slabs(|s| s.carved))
        .sum()
}

/// Read the process-global arena counters (monotone; assert on deltas).
#[cfg(feature = "stats")]
pub fn arena_stats() -> ArenaStats {
    use std::sync::atomic::Ordering::Relaxed;
    ArenaStats {
        pool_hits: counters::HITS.load(Relaxed),
        pool_misses: counters::MISSES.load(Relaxed),
        recycled_bytes: counters::RECYCLED.load(Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::PnbBst;

    #[test]
    fn alloc_free_now_reuses_the_block() {
        let p1 = alloc(0xDEAD_BEEFu64);
        assert_eq!(unsafe { *p1 }, 0xDEAD_BEEF);
        free_now(p1);
        // Same thread, same layout class: the very next allocation must
        // come from the pool — i.e. the same block.
        let p2 = alloc(7u64);
        assert_eq!(p2, p1, "pool must serve the recycled block (LIFO)");
        assert_eq!(unsafe { *p2 }, 7);
        free_now(p2);
    }

    #[test]
    fn recycle_raw_runs_the_destructor() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(#[allow(dead_code)] u64);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let before = DROPS.load(Ordering::Relaxed);
        let p = alloc(D(1));
        unsafe { recycle_raw(p) };
        assert_eq!(DROPS.load(Ordering::Relaxed), before + 1);
    }

    #[test]
    fn distinct_layouts_use_distinct_classes() {
        let a = alloc(1u64);
        let b = alloc([1u128; 4]);
        free_now(a);
        free_now(b);
        let b2 = alloc([2u128; 4]);
        assert_eq!(b2, b, "16-align class must not be served the u64 block");
        free_now(b2);
    }

    #[test]
    fn consecutive_carves_are_packed_and_huge_slabs_are_aligned() {
        type N = Node<u64, u64>;
        let layout = Layout::new::<N>();
        let size = std::mem::size_of::<N>();
        // A private slab set, so no concurrent test carves in between.
        let mut slabs = Slabs::new();
        let mut blocks = Vec::new();
        // 64 KiB .. 1 MiB, then two 2 MiB slabs.
        while slabs.mapped.len() < 7 {
            let (start, n) = slabs.carve(layout, CARVE_RUN);
            assert!(n >= 1);
            blocks.extend((0..n).map(|i| start.wrapping_add(i * size)));
        }
        let sizes: Vec<usize> = slabs.mapped.iter().map(|s| s.layout.size()).collect();
        assert_eq!(
            sizes,
            [64, 128, 256, 512, 1024, 2048, 2048].map(|k| k << 10)
        );
        for slab in &slabs.mapped {
            if slab.layout.size() == HUGE_SLAB {
                assert_eq!(
                    slab.base as usize % HUGE_SLAB,
                    0,
                    "2 MiB slabs are 2 MiB-aligned"
                );
            }
        }
        // Within a slab, each carve continues where the previous one
        // ended: block k sits exactly k * size_of past the slab's base.
        let mut k = 0;
        let mut slab = blocks[0];
        for w in blocks.windows(2) {
            if w[1] == w[0].wrapping_add(size) {
                k += 1;
                assert_eq!(w[1], slab.wrapping_add(k * size));
            } else {
                assert!(
                    slabs.mapped.iter().any(|s| s.base == w[1]),
                    "a gap only at a new slab"
                );
                slab = w[1];
                k = 0;
            }
        }
        assert_eq!(slabs.carved, blocks.len() as u64);

        // Trim's rule: a slab goes only when all its carved blocks are
        // pooled. Hold back one block of the 64 KiB slab...
        blocks.sort_unstable();
        let first = slabs.mapped[0].base;
        let held = blocks.iter().position(|&b| b == first).unwrap();
        let mut pooled = blocks.clone();
        pooled.remove(held);
        let freed = slabs.release_pooled(size, &pooled);
        assert_eq!(freed.len(), 6);
        assert_eq!(slabs.mapped.len(), 1);
        assert_eq!(
            slabs.left, 0,
            "the newest slab went, so the cursor is reset"
        );
        assert_eq!(
            slabs.next_bytes, HUGE_SLAB,
            "growth resets only when no slab is left"
        );
        // ...then pool it with the rest of its slab (trim pushes the
        // unreleased blocks back to the spillover and meets them again).
        let first_slab: Vec<*mut u8> = blocks
            .iter()
            .copied()
            .filter(|&b| b >= first && b < first.wrapping_add(MIN_SLAB))
            .collect();
        let last = slabs.release_pooled(size, &first_slab);
        assert_eq!(last.len(), 1);
        assert!(slabs.mapped.is_empty());
        assert_eq!(slabs.next_bytes, MIN_SLAB);
        for s in freed.into_iter().chain(last) {
            // SAFETY: mapped by `slabs` with this layout; the blocks
            // above are never dereferenced.
            unsafe { global_dealloc(s.base, s.layout) };
        }
    }

    /// Bytes in the slabs of `layout`'s class.
    fn class_slab_bytes(layout: Layout) -> usize {
        global_class(layout)
            .expect("registry has room")
            .with_slabs(|s| s.mapped.iter().map(|sl| sl.layout.size()).sum())
    }

    #[test]
    fn from_sorted_tree_drops_through_the_arena() {
        // A value type no other test uses gives the nodes a class of
        // their own.
        type V = [u64; 9];
        let layout = Layout::new::<Node<u64, V>>();
        let pooled_here = || {
            POOLS.with(|p| {
                let mut p = p.borrow_mut();
                let c = p.class_mut(layout);
                c.free.len() + c.run_left
            })
        };
        let tree = PnbBst::<u64, V>::from_sorted((0..100).map(|k| (k, [k; 9])).collect());
        assert_eq!(tree.check_invariants(), 100);
        assert!(class_slab_bytes(layout) > 0, "nodes are carved from slabs");
        let before = pooled_here();
        drop(tree);
        // 100 leaves, 99 internals, two sentinel leaves, the ∞₁ internal
        // and the root: every one back in this thread's pool.
        assert_eq!(pooled_here() - before, 203);
    }

    #[test]
    fn trim_releases_every_slab_of_dropped_trees() {
        type V = [u64; 11];
        let layout = Layout::new::<Node<u64, V>>();
        let tree = PnbBst::<u64, V>::from_sorted((0..20_000).map(|k| (k, [k; 11])).collect());
        assert!(class_slab_bytes(layout) > 2 * HUGE_SLAB);
        drop(tree);
        crate::collector_drain(4);
        trim();
        assert_eq!(
            class_slab_bytes(layout),
            0,
            "every block was pooled, so every slab goes"
        );

        // The class starts over from the smallest slab, and works.
        let tree = PnbBst::<u64, V>::new();
        for k in 0..1_000 {
            assert!(tree.insert(k, [k; 11]));
        }
        assert_eq!(tree.get(&999), Some([999; 11]));
        assert_eq!(tree.check_invariants(), 1_000);
        assert_eq!(
            global_class(layout)
                .unwrap()
                .with_slabs(|s| s.mapped[0].layout.size()),
            MIN_SLAB
        );
    }

    #[test]
    fn scan_stack_pools_its_buffer() {
        let mut s: ScanStack<u64> = ScanStack::new();
        let x = 9u64;
        s.push(&x);
        assert_eq!(s.len(), 1);
        let cap_ptr = s.buf.as_ptr();
        assert_eq!(s.pop(), Some(&x as *const u64));
        assert_eq!(s.pop(), None);
        drop(s);
        // The buffer (now warm) must be handed to the next stack.
        let s2: ScanStack<u32> = ScanStack::new();
        assert_eq!(s2.buf.as_ptr(), cap_ptr);
    }
}
