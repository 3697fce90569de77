//! The `simd` variant runs inside the engine's timed loop, which must not
//! allocate. The engine's workspace audit only sees the buffers it owns,
//! so this test counts every heap allocation the `simd` SpMM and SpMV
//! entry points make, through a counting global allocator, for every
//! format they support and at every level the host runs.
//!
//! The allocator counts only on the thread that switches counting on, and
//! this binary holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use spmm_core::{CooMatrix, DenseMatrix, SparseFormat};
use spmm_kernels::simd;
use spmm_kernels::FormatData;

struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: forwards to the system allocator; the counting touches only an
// atomic and a const-initialised thread local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes `f` allocates on this thread.
fn allocated(f: impl FnOnce()) -> usize {
    BYTES.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    BYTES.load(Ordering::Relaxed)
}

#[test]
fn simd_entry_points_allocate_nothing() {
    const ROWS: usize = 61;
    const COLS: usize = 47;
    const K: usize = 24;
    let mut trips = Vec::new();
    for i in 0..ROWS {
        for d in 0..(1 + i % 9) {
            trips.push((i, (i * 5 + d * 7) % COLS, 0.25 + ((i + d) % 13) as f64));
        }
    }
    let coo = CooMatrix::<f64>::from_triplets(ROWS, COLS, &trips).unwrap();
    let b = DenseMatrix::from_fn(COLS, K, |i, j| ((i + 3 * j) % 11) as f64 - 5.0);
    let x: Vec<f64> = (0..COLS).map(|i| i as f64 * 0.5 - 3.0).collect();
    let mut c = DenseMatrix::zeros(ROWS, K);
    let mut y = vec![0.0; ROWS];

    let mut offenders = Vec::new();
    for level in simd::levels() {
        for format in SparseFormat::ALL {
            let data = FormatData::from_coo(format, &coo, 4).unwrap();
            // One untimed call first, as the engine warms up, so one-time
            // lazy initialisation is not counted.
            let spmm = data.spmm_serial_simd_at(level, &b, K, &mut c);
            let spmv = data.spmv_serial_simd_at(level, &x, &mut y);
            if spmm {
                let bytes = allocated(|| {
                    data.spmm_serial_simd_at(level, &b, K, &mut c);
                });
                if bytes > 0 {
                    offenders.push(format!("{format} spmm at {}: {bytes} B", level.name()));
                }
            }
            if spmv {
                let bytes = allocated(|| {
                    data.spmv_serial_simd_at(level, &x, &mut y);
                });
                if bytes > 0 {
                    offenders.push(format!("{format} spmv at {}: {bytes} B", level.name()));
                }
            }
            let supported = matches!(
                format,
                SparseFormat::Csr | SparseFormat::Ell | SparseFormat::Bcsr | SparseFormat::Sell
            );
            assert_eq!(spmm, supported, "{format} spmm");
            assert_eq!(
                spmv,
                matches!(format, SparseFormat::Csr | SparseFormat::Sell),
                "{format} spmv"
            );
        }
    }
    assert!(offenders.is_empty(), "{}", offenders.join("\n"));
}
