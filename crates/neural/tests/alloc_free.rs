//! Training allocates nothing per sample or per epoch.
//!
//! A counting global allocator tallies the allocations made on the test's
//! own thread. A backpropagation step must make none, and a training run's
//! count must not depend on how many epochs it runs: the per-epoch
//! validation MSE included, every buffer is sized once up front.

use cichar_neural::{Dataset, Mlp, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Delegates to `System`, counting calls made on the current thread. The
/// library forbids unsafe code; this test binary is its own crate root.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` because the allocator also runs while thread-locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A smooth 17-input map, shaped like the Table 1 training set.
fn dataset() -> Dataset {
    let inputs: Vec<Vec<f64>> = (0..60)
        .map(|k| {
            (0..17)
                .map(|i| ((k * 7 + i * 3) % 11) as f64 / 10.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = inputs
        .iter()
        .map(|x| vec![0.2 + 0.6 * x.iter().sum::<f64>() / 17.0])
        .collect();
    Dataset::new(inputs, targets).expect("valid")
}

#[test]
fn training_allocates_nothing_per_sample_or_epoch() {
    let data = dataset();
    let network = || Mlp::new(&[17, 16, 8, 1], &mut StdRng::seed_from_u64(3)).expect("valid");

    let mut mlp = network();
    let (x, t) = data.sample(0);
    let (steps, _) = allocations_in(|| {
        for _ in 0..100 {
            mlp.train_sample_decay(x, t, 0.2, 0.6, 1e-4);
        }
    });
    assert_eq!(steps, 0, "a training step allocated");

    // Patience and the target MSE disabled, so each run lasts every epoch.
    let run = |epochs: usize| {
        let trainer = Trainer::new(TrainConfig {
            epochs,
            patience: usize::MAX,
            target_mse: 0.0,
            weight_decay: 1e-4,
            ..TrainConfig::default()
        });
        let mut mlp = network();
        let (allocations, report) =
            allocations_in(|| trainer.train(&mut mlp, &data, &mut StdRng::seed_from_u64(9)));
        assert_eq!(report.epochs_run, epochs);
        allocations
    };
    let (short, long) = (run(20), run(40));
    assert_eq!(
        short, long,
        "20 epochs allocated {short} times, 40 epochs {long}"
    );
}
