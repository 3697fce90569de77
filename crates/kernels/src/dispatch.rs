//! Run-time dispatch over (format × backend × variant).
//!
//! The thesis drives one kernel per benchmark binary; this crate instead
//! packages a formatted matrix as a [`FormatData`] value whose methods
//! cover the whole kernel matrix, so the harness (and the study drivers)
//! can select format, backend and variant from command-line parameters.

use spmm_core::{
    AnyMatrix, BcsrMatrix, BellMatrix, ConversionGraph, ConvertConfig, CooMatrix, Csr5Matrix,
    CsrMatrix, DenseMatrix, EllMatrix, HybMatrix, Index, MemoryFootprint, PackedPanels, Scalar,
    SellMatrix, SparseError, SparseFormat, SparseMatrix,
};
use spmm_parallel::{Schedule, ThreadPool};

use crate::simd::{self, SimdLevel};
use crate::tiled::{self, TileConfig};
use crate::util::Exec;
use crate::{extended, optimized, parallel, serial, transpose};

/// Default SELL-C-σ slice height used by [`FormatData::from_coo`].
pub const SELL_SLICE_HEIGHT: usize = 8;
/// Default SELL-C-σ sorting window used by [`FormatData::from_coo`].
pub const SELL_SIGMA: usize = 64;

/// The conversion parameters for block size `block` and the suite's
/// SELL-C-σ defaults.
fn convert_config(block: usize) -> ConvertConfig {
    ConvertConfig {
        block,
        sell_c: SELL_SLICE_HEIGHT,
        sell_sigma: SELL_SIGMA,
    }
}

/// A sparse matrix formatted into one of the suite's formats, with uniform
/// kernel entry points.
#[derive(Debug, Clone)]
pub enum FormatData<T, I = usize> {
    /// Coordinate format.
    Coo(CooMatrix<T, I>),
    /// Compressed sparse row.
    Csr(CsrMatrix<T, I>),
    /// ELLPACK.
    Ell(EllMatrix<T, I>),
    /// Blocked CSR.
    Bcsr(BcsrMatrix<T, I>),
    /// Blocked ELLPACK.
    Bell(BellMatrix<T, I>),
    /// CSR5-style tiles.
    Csr5(Csr5Matrix<T, I>),
    /// SELL-C-σ sliced ELLPACK.
    Sell(SellMatrix<T, I>),
    /// HYB (ELL + COO tail).
    Hyb(HybMatrix<T, I>),
}

impl<T: Scalar, I: Index> FormatData<T, I> {
    /// Format `coo` into `format` along the cheapest route for its
    /// statistics. `block` is the BCSR/BELL block size (ignored by the
    /// other formats — the suite's `-b` flag semantics).
    pub fn from_coo(
        format: SparseFormat,
        coo: &CooMatrix<T, I>,
        block: usize,
    ) -> Result<Self, SparseError> {
        let converted =
            ConversionGraph::shared().convert_coo(coo, format, &convert_config(block))?;
        Ok(Self::recorded(converted.matrix))
    }

    /// Format `coo` into `format` along `route`, a route planned
    /// beforehand: no statistics pass and no route search. A route that
    /// does not lead from COO to `format` over registered edges is a
    /// `NoRoute`.
    pub fn from_coo_along(
        format: SparseFormat,
        coo: &CooMatrix<T, I>,
        route: &[SparseFormat],
        block: usize,
    ) -> Result<Self, SparseError> {
        let matrix = ConversionGraph::shared().convert_coo_along(
            coo,
            route,
            format,
            &convert_config(block),
        )?;
        Ok(Self::recorded(matrix))
    }

    /// Wrap a freshly converted matrix, recording its footprint.
    fn recorded(matrix: AnyMatrix<T, I>) -> Self {
        let data: FormatData<T, I> = matrix.into();
        spmm_core::traffic::record_footprint(data.format().name(), &data);
        data
    }

    /// Record one SpMM kernel call in the metrics registry: call count,
    /// useful flops, and the algorithmic traffic of this format at `k`.
    /// One registry lookup per *kernel call* (never per row), and a single
    /// relaxed load when tracing is off.
    fn record_spmm_metrics(&self, k: usize) {
        if !spmm_trace::enabled() {
            return;
        }
        spmm_trace::counter("spmm.kernel_calls").inc();
        spmm_trace::counter("spmm.flops").add(crate::spmm_flops(self.nnz(), k));
        let t = spmm_core::traffic::spmm_traffic(
            self.rows(),
            k,
            self.stored_entries(),
            self.memory_footprint(),
            spmm_core::traffic::value_bytes::<T>(),
        );
        spmm_trace::counter("spmm.bytes_read").add(t.bytes_read);
        spmm_trace::counter("spmm.bytes_written").add(t.bytes_written);
    }

    /// SpMV twin of [`FormatData::record_spmm_metrics`] (`spmv.*` keys).
    fn record_spmv_metrics(&self) {
        if !spmm_trace::enabled() {
            return;
        }
        spmm_trace::counter("spmv.kernel_calls").inc();
        spmm_trace::counter("spmv.flops").add(crate::spmm_flops(self.nnz(), 1));
        let t = spmm_core::traffic::spmv_traffic(
            self.rows(),
            self.stored_entries(),
            self.memory_footprint(),
            spmm_core::traffic::value_bytes::<T>(),
        );
        spmm_trace::counter("spmv.bytes_read").add(t.bytes_read);
        spmm_trace::counter("spmv.bytes_written").add(t.bytes_written);
    }

    /// The format tag.
    pub fn format(&self) -> SparseFormat {
        match self {
            FormatData::Coo(_) => SparseFormat::Coo,
            FormatData::Csr(_) => SparseFormat::Csr,
            FormatData::Ell(_) => SparseFormat::Ell,
            FormatData::Bcsr(_) => SparseFormat::Bcsr,
            FormatData::Bell(_) => SparseFormat::Bell,
            FormatData::Csr5(_) => SparseFormat::Csr5,
            FormatData::Sell(_) => SparseFormat::Sell,
            FormatData::Hyb(_) => SparseFormat::Hyb,
        }
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        match self {
            FormatData::Coo(m) => m.rows(),
            FormatData::Csr(m) => m.rows(),
            FormatData::Ell(m) => SparseMatrix::rows(m),
            FormatData::Bcsr(m) => m.rows(),
            FormatData::Bell(m) => SparseMatrix::rows(m),
            FormatData::Csr5(m) => SparseMatrix::rows(m),
            FormatData::Sell(m) => m.rows(),
            FormatData::Hyb(m) => m.rows(),
        }
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        match self {
            FormatData::Coo(m) => m.cols(),
            FormatData::Csr(m) => m.cols(),
            FormatData::Ell(m) => SparseMatrix::cols(m),
            FormatData::Bcsr(m) => m.cols(),
            FormatData::Bell(m) => SparseMatrix::cols(m),
            FormatData::Csr5(m) => SparseMatrix::cols(m),
            FormatData::Sell(m) => m.cols(),
            FormatData::Hyb(m) => m.cols(),
        }
    }

    /// Real nonzero count (excludes blocked-format padding).
    pub fn nnz(&self) -> usize {
        match self {
            FormatData::Coo(m) => m.nnz(),
            FormatData::Csr(m) => m.nnz(),
            FormatData::Ell(m) => m.nnz(),
            FormatData::Bcsr(m) => m.nnz(),
            FormatData::Bell(m) => m.nnz(),
            FormatData::Csr5(m) => m.nnz(),
            FormatData::Sell(m) => m.nnz(),
            FormatData::Hyb(m) => m.nnz(),
        }
    }

    /// Stored entries including padding (the work the hardware performs).
    pub fn stored_entries(&self) -> usize {
        match self {
            FormatData::Coo(m) => m.stored_entries(),
            FormatData::Csr(m) => m.stored_entries(),
            FormatData::Ell(m) => m.stored_entries(),
            FormatData::Bcsr(m) => m.stored_entries(),
            FormatData::Bell(m) => m.stored_entries(),
            FormatData::Csr5(m) => m.stored_entries(),
            FormatData::Sell(m) => m.stored_entries(),
            FormatData::Hyb(m) => m.stored_entries(),
        }
    }

    /// Payload bytes of the representation (§6.3.5 accounting).
    pub fn memory_footprint(&self) -> usize {
        match self {
            FormatData::Coo(m) => m.memory_footprint(),
            FormatData::Csr(m) => m.memory_footprint(),
            FormatData::Ell(m) => m.memory_footprint(),
            FormatData::Bcsr(m) => m.memory_footprint(),
            FormatData::Bell(m) => m.memory_footprint(),
            FormatData::Csr5(m) => m.memory_footprint(),
            FormatData::Sell(m) => m.memory_footprint(),
            FormatData::Hyb(m) => m.memory_footprint(),
        }
    }

    /// Serial SpMM.
    pub fn spmm_serial(&self, b: &DenseMatrix<T>, k: usize, c: &mut DenseMatrix<T>) {
        let _span = spmm_trace::span!("compute", "serial");
        match self {
            FormatData::Coo(m) => serial::coo_spmm(m, b, k, c),
            FormatData::Csr(m) => serial::csr_spmm(m, b, k, c),
            FormatData::Ell(m) => serial::ell_spmm(m, b, k, c),
            FormatData::Bcsr(m) => serial::bcsr_spmm(m, b, k, c),
            FormatData::Bell(m) => serial::bell_spmm(m, b, k, c),
            FormatData::Csr5(m) => serial::csr5_spmm(m, b, k, c),
            FormatData::Sell(m) => extended::sell_spmm(m, b, k, c),
            FormatData::Hyb(m) => extended::hyb_spmm(m, b, k, c),
        }
        self.record_spmm_metrics(k);
    }

    /// CPU-parallel SpMM. COO ignores `schedule` (its split is inherently
    /// static and row-aligned).
    pub fn spmm_parallel(
        &self,
        pool: &ThreadPool,
        threads: usize,
        schedule: Schedule,
        b: &DenseMatrix<T>,
        k: usize,
        c: &mut DenseMatrix<T>,
    ) {
        let _span = spmm_trace::span!("compute", "parallel");
        match self {
            FormatData::Coo(m) => parallel::coo_spmm(pool, threads, m, b, k, c),
            FormatData::Csr(m) => parallel::csr_spmm(pool, threads, schedule, m, b, k, c),
            FormatData::Ell(m) => parallel::ell_spmm(pool, threads, schedule, m, b, k, c),
            FormatData::Bcsr(m) => parallel::bcsr_spmm(pool, threads, schedule, m, b, k, c),
            FormatData::Bell(m) => parallel::bell_spmm(pool, threads, schedule, m, b, k, c),
            FormatData::Csr5(m) => parallel::csr5_spmm(pool, threads, schedule, m, b, k, c),
            FormatData::Sell(m) => {
                extended::sell_spmm_parallel(pool, threads, schedule, m, b, k, c)
            }
            FormatData::Hyb(m) => extended::hyb_spmm_parallel(pool, threads, schedule, m, b, k, c),
        }
        self.record_spmm_metrics(k);
    }

    /// Serial transposed-B SpMM (Study 8). Returns `false` for formats
    /// without a transpose variant (BELL, CSR5 — matching the paper, which
    /// only built transpose kernels for its four formats).
    pub fn spmm_serial_bt(&self, bt: &DenseMatrix<T>, k: usize, c: &mut DenseMatrix<T>) -> bool {
        let _span = spmm_trace::span!("compute", "serial_bt");
        let ran = transpose::spmm_bt(self, Exec::Serial, bt, k, c);
        if ran {
            self.record_spmm_metrics(k);
        }
        ran
    }

    /// Parallel transposed-B SpMM (Study 8).
    pub fn spmm_parallel_bt(
        &self,
        pool: &ThreadPool,
        threads: usize,
        schedule: Schedule,
        bt: &DenseMatrix<T>,
        k: usize,
        c: &mut DenseMatrix<T>,
    ) -> bool {
        let _span = spmm_trace::span!("compute", "parallel_bt");
        let exec = Exec::Parallel(pool, threads, schedule);
        let ran = transpose::spmm_bt(self, exec, bt, k, c);
        if ran {
            self.record_spmm_metrics(k);
        }
        ran
    }

    /// Serial const-`K` SpMM (Study 9). Returns `false` if this format has
    /// no specialized kernel or `k` has no instantiation.
    pub fn spmm_serial_fixed_k(
        &self,
        b: &DenseMatrix<T>,
        k: usize,
        c: &mut DenseMatrix<T>,
    ) -> bool {
        let _span = spmm_trace::span!("compute", "fixed_k");
        let ran = optimized::spmm_fixed_k(self, Exec::Serial, b, k, c);
        if ran {
            self.record_spmm_metrics(k);
        }
        ran
    }

    /// Parallel const-`K` SpMM (Study 9; CSR and ELL rows loops only, the
    /// kernels whose parallel variants the paper re-ran).
    pub fn spmm_parallel_fixed_k(
        &self,
        pool: &ThreadPool,
        threads: usize,
        schedule: Schedule,
        b: &DenseMatrix<T>,
        k: usize,
        c: &mut DenseMatrix<T>,
    ) -> bool {
        let _span = spmm_trace::span!("compute", "fixed_k_parallel");
        let exec = Exec::Parallel(pool, threads, schedule);
        let ran = matches!(self, FormatData::Csr(_) | FormatData::Ell(_))
            && optimized::spmm_fixed_k(self, exec, b, k, c);
        if ran {
            self.record_spmm_metrics(k);
        }
        ran
    }

    /// Serial cache-blocked tiled SpMM against a panel-packed B (the
    /// [`crate::tiled`] engine). Returns `false` for formats without a
    /// tiled kernel (the same CSR/ELL/BCSR set the paper optimizes).
    pub fn spmm_serial_tiled(
        &self,
        packed: &PackedPanels<T>,
        cfg: TileConfig,
        c: &mut DenseMatrix<T>,
    ) -> bool {
        let _span = spmm_trace::span!("compute", "tiled");
        match self {
            FormatData::Csr(m) => tiled::csr_spmm_tiled(m, packed, cfg, c),
            FormatData::Ell(m) => tiled::ell_spmm_tiled(m, packed, cfg, c),
            FormatData::Bcsr(m) => tiled::bcsr_spmm_tiled(m, packed, cfg, c),
            _ => return false,
        }
        self.record_spmm_metrics(c.cols());
        self.record_tiled_metrics(cfg, c.cols());
        true
    }

    /// Parallel 2-D tiled SpMM: row chunks × k-panels over the pool.
    pub fn spmm_parallel_tiled(
        &self,
        pool: &ThreadPool,
        threads: usize,
        schedule: Schedule,
        packed: &PackedPanels<T>,
        cfg: TileConfig,
        c: &mut DenseMatrix<T>,
    ) -> bool {
        let _span = spmm_trace::span!("compute", "tiled_parallel");
        match self {
            FormatData::Csr(m) => {
                tiled::csr_spmm_tiled_parallel(pool, threads, schedule, m, packed, cfg, c)
            }
            FormatData::Ell(m) => {
                tiled::ell_spmm_tiled_parallel(pool, threads, schedule, m, packed, cfg, c)
            }
            FormatData::Bcsr(m) => {
                tiled::bcsr_spmm_tiled_parallel(pool, threads, schedule, m, packed, cfg, c)
            }
            _ => return false,
        }
        self.record_spmm_metrics(c.cols());
        self.record_tiled_metrics(cfg, c.cols());
        true
    }

    /// Serial SpMV (§6.3.4): the `K = 1` instance of the const-`K`
    /// kernels. Returns `false` for formats other than the paper's four.
    pub fn spmv_serial(&self, x: &[T], y: &mut [T]) -> bool {
        let _span = spmm_trace::span!("compute", "spmv_serial");
        let ran = optimized::spmv(self, Exec::Serial, x, y);
        if ran {
            self.record_spmv_metrics();
        }
        ran
    }

    /// Serial CPU-parallel SpMM with an nnz-balanced static row split
    /// (see [`spmm_parallel::balanced_partition`]). Only CSR exposes the
    /// nonzero prefix sum the split needs; other formats return `false`.
    pub fn spmm_parallel_balanced(
        &self,
        pool: &ThreadPool,
        threads: usize,
        b: &DenseMatrix<T>,
        k: usize,
        c: &mut DenseMatrix<T>,
    ) -> bool {
        let _span = spmm_trace::span!("compute", "balanced");
        match self {
            FormatData::Csr(m) => parallel::csr_spmm_balanced(pool, threads, m, b, k, c),
            _ => return false,
        }
        self.record_spmm_metrics(k);
        true
    }

    /// Parallel SpMV (§6.3.4).
    pub fn spmv_parallel(
        &self,
        pool: &ThreadPool,
        threads: usize,
        schedule: Schedule,
        x: &[T],
        y: &mut [T],
    ) -> bool {
        let _span = spmm_trace::span!("compute", "spmv_parallel");
        let ran = optimized::spmv(self, Exec::Parallel(pool, threads, schedule), x, y);
        if ran {
            self.record_spmv_metrics();
        }
        ran
    }

    /// Record a tiled kernel call's tile grid in the metrics registry.
    fn record_tiled_metrics(&self, cfg: TileConfig, k: usize) {
        if !spmm_trace::enabled() {
            return;
        }
        let tiles = self.rows().div_ceil(cfg.row_block.max(1)) as u64
            * k.div_ceil(cfg.panel_w.max(1)) as u64;
        spmm_trace::counter("tiled.tiles_dispatched").add(tiles);
    }

    /// Serial SpMM of the `simd` variant at the process-wide
    /// [`simd::active_level`]: see [`FormatData::spmm_serial_simd_at`].
    pub fn spmm_serial_simd(&self, b: &DenseMatrix<T>, k: usize, c: &mut DenseMatrix<T>) -> bool {
        self.spmm_serial_simd_at(simd::active_level(), b, k, c)
    }

    /// Serial SpMM of the `simd` variant at an explicit [`SimdLevel`] (A/B
    /// studies pin the portable build this way): the normal range body,
    /// with every multiply-add fused at any level but
    /// [`SimdLevel::Scalar`], where it equals [`FormatData::spmm_serial`]
    /// bit for bit. A level this CPU lacks runs as `Scalar`. Returns
    /// `false` for formats without a `simd` kernel (COO, BELL, CSR5, HYB).
    pub fn spmm_serial_simd_at(
        &self,
        level: SimdLevel,
        b: &DenseMatrix<T>,
        k: usize,
        c: &mut DenseMatrix<T>,
    ) -> bool {
        let _span = spmm_trace::span!("compute", "simd");
        let ran = optimized::spmm_simd(self, level, b, k, c);
        if ran {
            self.record_spmm_metrics(k);
        }
        ran
    }

    /// Serial SpMV of the `simd` variant at an explicit [`SimdLevel`]: CSR
    /// sums each row's gathered products over four partial sums; SELL-C-σ
    /// accumulates a slice's lanes side by side (the layout's native
    /// axis). Fused at any level but [`SimdLevel::Scalar`]. Other formats
    /// return `false` — a wider set than [`FormatData::spmv_serial`],
    /// which keeps SELL unsupported to match the paper's kernel matrix.
    pub fn spmv_serial_simd_at(&self, level: SimdLevel, x: &[T], y: &mut [T]) -> bool {
        let _span = spmm_trace::span!("compute", "spmv_simd");
        let ran = optimized::spmv_simd(self, level, x, y);
        if ran {
            self.record_spmv_metrics();
        }
        ran
    }
}

impl<T: Scalar, I: Index> MemoryFootprint for FormatData<T, I> {
    fn memory_footprint(&self) -> usize {
        FormatData::memory_footprint(self)
    }
}

/// A converted [`AnyMatrix`] is a [`FormatData`] with kernels attached —
/// this is the structural bridge between the core conversion graph and
/// the kernel dispatch layer.
impl<T: Scalar, I: Index> From<AnyMatrix<T, I>> for FormatData<T, I> {
    fn from(m: AnyMatrix<T, I>) -> Self {
        match m {
            AnyMatrix::Coo(x) => FormatData::Coo(x),
            AnyMatrix::Csr(x) => FormatData::Csr(x),
            AnyMatrix::Ell(x) => FormatData::Ell(x),
            AnyMatrix::Bcsr(x) => FormatData::Bcsr(x),
            AnyMatrix::Bell(x) => FormatData::Bell(x),
            AnyMatrix::Csr5(x) => FormatData::Csr5(x),
            AnyMatrix::Sell(x) => FormatData::Sell(x),
            AnyMatrix::Hyb(x) => FormatData::Hyb(x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (CooMatrix<f64>, DenseMatrix<f64>) {
        let mut trips = Vec::new();
        for i in 0..40usize {
            for d in 0..(i % 4 + 1) {
                trips.push((i, (i + d * 11) % 25, 1.0 + (i * d) as f64 * 0.1));
            }
        }
        (
            CooMatrix::from_triplets(40, 25, &trips).unwrap(),
            DenseMatrix::from_fn(25, 8, |i, j| ((i + j) % 5) as f64 - 2.0),
        )
    }

    #[test]
    fn every_format_round_trips_through_dispatch() {
        let (coo, b) = fixture();
        let expected = coo.spmm_reference_k(&b, 8);
        let pool = ThreadPool::new(3);
        for fmt in SparseFormat::ALL {
            let data = FormatData::from_coo(fmt, &coo, 4).unwrap();
            assert_eq!(data.format(), fmt);
            assert_eq!(data.nnz(), coo.nnz());
            assert_eq!((data.rows(), data.cols()), (40, 25));
            assert!(data.memory_footprint() > 0);

            let mut c = DenseMatrix::zeros(40, 8);
            data.spmm_serial(&b, 8, &mut c);
            assert_eq!(c, expected, "{fmt} serial");

            let mut c = DenseMatrix::zeros(40, 8);
            data.spmm_parallel(&pool, 3, Schedule::Static, &b, 8, &mut c);
            let err = spmm_core::max_rel_error(&c, &expected);
            assert!(err < 1e-12, "{fmt} parallel err={err}");
        }
    }

    #[test]
    fn transpose_dispatch_covers_paper_formats_only() {
        let (coo, b) = fixture();
        let bt = b.transposed();
        let expected = coo.spmm_reference_k(&b, 8);
        for fmt in SparseFormat::ALL {
            let data = FormatData::from_coo(fmt, &coo, 2).unwrap();
            let mut c = DenseMatrix::zeros(40, 8);
            let supported = data.spmm_serial_bt(&bt, 8, &mut c);
            assert_eq!(supported, SparseFormat::PAPER.contains(&fmt), "{fmt}");
            if supported {
                assert_eq!(c, expected, "{fmt} bt");
            }
        }
    }

    #[test]
    fn fixed_k_dispatch() {
        let (coo, b16) = fixture();
        let b = DenseMatrix::from_fn(25, 16, |i, j| b16.get(i, j % 8));
        let expected = coo.spmm_reference_k(&b, 16);
        let data = FormatData::from_coo(SparseFormat::Csr, &coo, 4).unwrap();
        let mut c = DenseMatrix::zeros(40, 16);
        assert!(data.spmm_serial_fixed_k(&b, 16, &mut c));
        assert_eq!(c, expected);
        // Unsupported k.
        let mut c = DenseMatrix::zeros(40, 9);
        let b9 = DenseMatrix::from_fn(25, 9, |_, _| 0.0);
        assert!(!data.spmm_serial_fixed_k(&b9, 9, &mut c));
    }

    #[test]
    fn tiled_dispatch_covers_csr_ell_bcsr() {
        let (coo, b) = fixture();
        let expected = coo.spmm_reference_k(&b, 8);
        let pool = ThreadPool::new(2);
        let cfg = TileConfig::new(3, 4);
        let packed = cfg.pack(&b, 8);
        for fmt in SparseFormat::ALL {
            let data = FormatData::from_coo(fmt, &coo, 4).unwrap();
            let supported = matches!(
                fmt,
                SparseFormat::Csr | SparseFormat::Ell | SparseFormat::Bcsr
            );
            let mut c = DenseMatrix::zeros(40, 8);
            assert_eq!(
                data.spmm_serial_tiled(&packed, cfg, &mut c),
                supported,
                "{fmt}"
            );
            if supported {
                assert!(c.max_abs_diff(&expected) < 1e-12, "{fmt} tiled serial");
            }
            let mut c = DenseMatrix::zeros(40, 8);
            let ran = data.spmm_parallel_tiled(&pool, 2, Schedule::Guided(1), &packed, cfg, &mut c);
            assert_eq!(ran, supported, "{fmt}");
            if supported {
                assert!(c.max_abs_diff(&expected) < 1e-12, "{fmt} tiled parallel");
            }
        }
    }

    #[test]
    fn simd_dispatch_covers_vector_formats() {
        let (coo, b) = fixture();
        let expected = coo.spmm_reference_k(&b, 8);
        let simd_formats = [
            SparseFormat::Csr,
            SparseFormat::Ell,
            SparseFormat::Bcsr,
            SparseFormat::Sell,
        ];
        for fmt in SparseFormat::ALL {
            let data = FormatData::from_coo(fmt, &coo, 4).unwrap();
            let supported = simd_formats.contains(&fmt);
            for level in simd::levels() {
                let mut c = DenseMatrix::zeros(40, 8);
                assert_eq!(
                    data.spmm_serial_simd_at(level, &b, 8, &mut c),
                    supported,
                    "{fmt}"
                );
                if supported {
                    assert!(
                        c.max_abs_diff(&expected) < 1e-12,
                        "{fmt} simd {}",
                        level.name()
                    );
                }
            }
            // The active-level wrapper agrees with its explicit twin.
            let mut c = DenseMatrix::zeros(40, 8);
            assert_eq!(data.spmm_serial_simd(&b, 8, &mut c), supported, "{fmt}");
            if supported {
                assert!(c.max_abs_diff(&expected) < 1e-12, "{fmt} simd active");
            }
        }
    }

    #[test]
    fn simd_levels_the_cpu_lacks_run_the_portable_build() {
        let (coo, _) = fixture();
        let b = DenseMatrix::from_fn(25, 8, |i, j| 0.1 * (i + 3 * j) as f64 - 0.7);
        let x: Vec<f64> = (0..25).map(|i| 0.3 * i as f64 - 1.1).collect();
        let data = FormatData::from_coo(SparseFormat::Sell, &coo, 4).unwrap();
        let run = |level| {
            let mut c = DenseMatrix::zeros(40, 8);
            let mut y = vec![0.0; 40];
            assert!(data.spmm_serial_simd_at(level, &b, 8, &mut c));
            assert!(data.spmv_serial_simd_at(level, &x, &mut y));
            (c, y)
        };
        // A foreign ISA's level, or one above the CPU's, runs portable
        // code; the levels on the CPU's ladder run their own copies.
        let runs = simd::levels();
        let mut lacked = 0;
        for level in [SimdLevel::Neon, SimdLevel::Avx2Fma, SimdLevel::Avx512] {
            if !runs.contains(&level) {
                assert_eq!(run(level), run(SimdLevel::Scalar), "{}", level.name());
                lacked += 1;
            }
        }
        assert!(lacked >= 1, "every level runs on this CPU");
    }

    #[test]
    fn simd_spmv_dispatch_adds_sell() {
        let (coo, _) = fixture();
        let x: Vec<f64> = (0..25).map(|i| i as f64 * 0.25 - 2.0).collect();
        let expected = coo.spmv_reference(&x);
        for fmt in SparseFormat::ALL {
            let data = FormatData::from_coo(fmt, &coo, 2).unwrap();
            let supported = matches!(fmt, SparseFormat::Csr | SparseFormat::Sell);
            for level in simd::levels() {
                let mut y = vec![0.0; 40];
                assert_eq!(
                    data.spmv_serial_simd_at(level, &x, &mut y),
                    supported,
                    "{fmt}"
                );
                if supported {
                    let worst = y
                        .iter()
                        .zip(&expected)
                        .map(|(a, b)| (a - b).abs())
                        .fold(0.0f64, f64::max);
                    assert!(worst < 1e-12, "{fmt} simd spmv {}", level.name());
                }
            }
        }
    }

    #[test]
    fn balanced_dispatch_is_csr_only() {
        let (coo, b) = fixture();
        let expected = coo.spmm_reference_k(&b, 8);
        let pool = ThreadPool::new(3);
        for fmt in SparseFormat::ALL {
            let data = FormatData::from_coo(fmt, &coo, 4).unwrap();
            let mut c = DenseMatrix::zeros(40, 8);
            let ran = data.spmm_parallel_balanced(&pool, 3, &b, 8, &mut c);
            assert_eq!(ran, fmt == SparseFormat::Csr, "{fmt}");
            if ran {
                assert!(c.max_abs_diff(&expected) < 1e-12, "{fmt} balanced");
            }
        }
    }

    #[test]
    fn spmv_dispatch() {
        let (coo, _) = fixture();
        let x: Vec<f64> = (0..25).map(|i| i as f64 * 0.25).collect();
        let expected = coo.spmv_reference(&x);
        let pool = ThreadPool::new(2);
        for fmt in SparseFormat::PAPER {
            let data = FormatData::from_coo(fmt, &coo, 2).unwrap();
            let mut y = vec![0.0; 40];
            assert!(data.spmv_serial(&x, &mut y), "{fmt}");
            assert_eq!(y, expected, "{fmt} spmv serial");
            let mut y = vec![0.0; 40];
            assert!(data.spmv_parallel(&pool, 3, Schedule::Static, &x, &mut y));
            assert_eq!(y, expected, "{fmt} spmv parallel");
        }
    }
}
