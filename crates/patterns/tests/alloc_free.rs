//! Expansion allocates only its vector buffer; feature extraction
//! allocates nothing.
//!
//! A counting global allocator tallies the allocations made on the test's
//! own thread and the largest one. Expanding a program must make exactly
//! one allocation, no larger than a maximum-length pattern's vectors (the
//! memory image is a bounded overlay, not a copy of the whole array), and
//! extracting its features must make none.

use cichar_patterns::{
    random, AddrMode, DataMode, OpMode, Pattern, PatternFeatures, Segment, SegmentProgram,
    TestVector, MAX_PATTERN_LEN,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Delegates to `System`, counting calls made on the current thread. The
/// library forbids unsafe code; this test binary is its own crate root.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    // `try_with` because the allocator also runs while thread-locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`, returning the allocations it made, the largest one's size
/// and its result.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    LARGEST.with(|m| m.set(0));
    let out = f();
    (
        ALLOCATIONS.with(Cell::get) - before,
        LARGEST.with(Cell::get),
        out,
    )
}

/// Eight full segments looped ten times: 10 000 cycles, truncated to the
/// 1000-cycle cap, writing and reading pseudo-random cells.
fn max_length_program() -> SegmentProgram {
    let segments = (0..8u16)
        .map(|k| {
            Segment::new(
                OpMode::AlternateWriteRead,
                AddrMode::Lcg { seed: k },
                DataMode::Lcg(k),
                125,
                0,
            )
            .expect("valid segment")
        })
        .collect();
    SegmentProgram::new(segments)
        .expect("valid program")
        .with_loops(10)
}

fn assert_one_bounded_allocation(program: &SegmentProgram) -> Pattern {
    let (allocations, largest, pattern) = allocations_in(|| program.expand());
    assert_eq!(allocations, 1, "expansion allocates its vector buffer only");
    assert!(
        largest <= MAX_PATTERN_LEN * std::mem::size_of::<TestVector>(),
        "largest allocation {largest} bytes"
    );
    pattern
}

#[test]
fn max_length_expansion_makes_one_bounded_allocation() {
    let pattern = assert_one_bounded_allocation(&max_length_program());
    assert_eq!(pattern.len(), MAX_PATTERN_LEN);
}

#[test]
fn short_programs_pad_without_reallocating() {
    let program = SegmentProgram::new(vec![Segment::new(
        OpMode::WriteOnly,
        AddrMode::Hold,
        DataMode::WalkingOne,
        10,
        7,
    )
    .expect("valid segment")])
    .expect("valid program");
    assert_eq!(assert_one_bounded_allocation(&program).len(), 100);
}

#[test]
fn random_expansions_make_one_allocation_each() {
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..200 {
        assert_one_bounded_allocation(&random::random_program(&mut rng));
    }
}

#[test]
fn feature_extraction_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(18);
    let mut patterns = vec![max_length_program().expand()];
    patterns.extend((0..200).map(|_| random::random_program(&mut rng).expand()));
    for pattern in &patterns {
        let (allocations, _, features) = allocations_in(|| PatternFeatures::extract(pattern));
        assert_eq!(allocations, 0, "extraction allocates nothing");
        assert!(features.is_normalized());
    }
}
