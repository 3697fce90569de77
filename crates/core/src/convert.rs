//! The conversion graph: every format-to-format constructor as an edge.
//!
//! The paper's harness (and ours, before this module) hand-wrote each
//! conversion as a bespoke `from_coo` that silently re-routed through CSR.
//! Following the unified-representation argument of Kreutzer et al.
//! (SELL-C-σ) and AlphaSparse's format-planning layer, this module
//! registers each implemented constructor as a directed edge
//! (COO↔CSR hub, CSR→{ELL, BCSR, BELL, SELL, HYB, CSR5}, and every
//! format's lossless `to_coo` back-edge) and routes any source format to
//! any target via the cheapest path under a byte-traffic cost model.
//!
//! Costs are *relative* — they only need to rank routes, so the default
//! model charges each hop the estimated bytes read (source arrays) plus
//! bytes written (destination arrays) at f64 values / usize indices.
//! Callers with a real machine model (the harness planner) can inject
//! their own cost function via [`ConversionGraph::with_cost`].

use std::sync::OnceLock;

use crate::{
    BcsrMatrix, BellMatrix, CooMatrix, Csr5Matrix, CsrMatrix, EllMatrix, HybMatrix, Index, Scalar,
    SellMatrix, SparseError, SparseFormat, SparseMatrix,
};

/// Parameters a conversion route may need: blocked formats take a block
/// size, SELL-C-σ takes a slice height and sorting window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvertConfig {
    /// Block edge for BCSR / Blocked-ELL (`b × b` blocks).
    pub block: usize,
    /// SELL-C-σ slice height `C`.
    pub sell_c: usize,
    /// SELL-C-σ sorting window `σ`.
    pub sell_sigma: usize,
}

impl Default for ConvertConfig {
    fn default() -> Self {
        ConvertConfig {
            block: 4,
            sell_c: 8,
            sell_sigma: 64,
        }
    }
}

impl ConvertConfig {
    /// The default config with an explicit block size.
    pub fn with_block(block: usize) -> Self {
        ConvertConfig {
            block,
            ..ConvertConfig::default()
        }
    }

    /// The default config with explicit SELL-C-σ parameters.
    pub fn with_sell(sell_c: usize, sell_sigma: usize) -> Self {
        ConvertConfig {
            sell_c,
            sell_sigma,
            ..ConvertConfig::default()
        }
    }
}

/// The shape summary a cost function sees when pricing a conversion hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixStats {
    /// Logical row count.
    pub rows: usize,
    /// Logical column count.
    pub cols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Nonzeros in the fullest row (drives ELL padding).
    pub max_row_nnz: usize,
    /// Block edge assumed for blocked-format estimates.
    pub block: usize,
}

impl MatrixStats {
    /// Stats of a COO matrix (one counting pass over the entries).
    pub fn of_coo<T: Scalar, I: Index>(coo: &CooMatrix<T, I>) -> Self {
        let mut counts = vec![0usize; coo.rows()];
        for &r in coo.row_indices() {
            counts[r.as_usize()] += 1;
        }
        MatrixStats {
            rows: coo.rows(),
            cols: coo.cols(),
            nnz: coo.nnz(),
            max_row_nnz: counts.iter().copied().max().unwrap_or(0),
            block: ConvertConfig::default().block,
        }
    }

    /// The same stats with an explicit block size.
    pub fn with_block(mut self, block: usize) -> Self {
        self.block = block.max(1);
        self
    }
}

/// A matrix in any of the suite's formats; what conversion routes carry
/// between hops and hand back at the end.
#[derive(Debug, Clone)]
pub enum AnyMatrix<T, I = usize> {
    /// Coordinate triplets.
    Coo(CooMatrix<T, I>),
    /// Compressed sparse row.
    Csr(CsrMatrix<T, I>),
    /// ELLPACK.
    Ell(EllMatrix<T, I>),
    /// Blocked CSR.
    Bcsr(BcsrMatrix<T, I>),
    /// Blocked ELLPACK.
    Bell(BellMatrix<T, I>),
    /// CSR5-style nnz tiles.
    Csr5(Csr5Matrix<T, I>),
    /// SELL-C-σ.
    Sell(SellMatrix<T, I>),
    /// HYB (ELL + COO tail).
    Hyb(HybMatrix<T, I>),
}

impl<T: Scalar, I: Index> AnyMatrix<T, I> {
    /// The format tag of the held matrix.
    pub fn format(&self) -> SparseFormat {
        match self {
            AnyMatrix::Coo(_) => SparseFormat::Coo,
            AnyMatrix::Csr(_) => SparseFormat::Csr,
            AnyMatrix::Ell(_) => SparseFormat::Ell,
            AnyMatrix::Bcsr(_) => SparseFormat::Bcsr,
            AnyMatrix::Bell(_) => SparseFormat::Bell,
            AnyMatrix::Csr5(_) => SparseFormat::Csr5,
            AnyMatrix::Sell(_) => SparseFormat::Sell,
            AnyMatrix::Hyb(_) => SparseFormat::Hyb,
        }
    }

    /// Extract the held matrix if it is in the expected format; a
    /// mismatch reports the actual→expected pair as a `NoRoute`.
    fn into_format<M>(
        self,
        expected: SparseFormat,
        pick: impl FnOnce(Self) -> Option<M>,
    ) -> Result<M, SparseError> {
        let from = self.format();
        pick(self).ok_or(SparseError::NoRoute { from, to: expected })
    }

    /// The held COO matrix, or a typed error.
    pub fn into_coo(self) -> Result<CooMatrix<T, I>, SparseError> {
        self.into_format(SparseFormat::Coo, |m| match m {
            AnyMatrix::Coo(x) => Some(x),
            _ => None,
        })
    }

    /// The held CSR matrix, or a typed error.
    pub fn into_csr(self) -> Result<CsrMatrix<T, I>, SparseError> {
        self.into_format(SparseFormat::Csr, |m| match m {
            AnyMatrix::Csr(x) => Some(x),
            _ => None,
        })
    }

    /// The held ELL matrix, or a typed error.
    pub fn into_ell(self) -> Result<EllMatrix<T, I>, SparseError> {
        self.into_format(SparseFormat::Ell, |m| match m {
            AnyMatrix::Ell(x) => Some(x),
            _ => None,
        })
    }

    /// The held BCSR matrix, or a typed error.
    pub fn into_bcsr(self) -> Result<BcsrMatrix<T, I>, SparseError> {
        self.into_format(SparseFormat::Bcsr, |m| match m {
            AnyMatrix::Bcsr(x) => Some(x),
            _ => None,
        })
    }

    /// The held Blocked-ELL matrix, or a typed error.
    pub fn into_bell(self) -> Result<BellMatrix<T, I>, SparseError> {
        self.into_format(SparseFormat::Bell, |m| match m {
            AnyMatrix::Bell(x) => Some(x),
            _ => None,
        })
    }

    /// The held CSR5 matrix, or a typed error.
    pub fn into_csr5(self) -> Result<Csr5Matrix<T, I>, SparseError> {
        self.into_format(SparseFormat::Csr5, |m| match m {
            AnyMatrix::Csr5(x) => Some(x),
            _ => None,
        })
    }

    /// The held SELL-C-σ matrix, or a typed error.
    pub fn into_sell(self) -> Result<SellMatrix<T, I>, SparseError> {
        self.into_format(SparseFormat::Sell, |m| match m {
            AnyMatrix::Sell(x) => Some(x),
            _ => None,
        })
    }

    /// The held HYB matrix, or a typed error.
    pub fn into_hyb(self) -> Result<HybMatrix<T, I>, SparseError> {
        self.into_format(SparseFormat::Hyb, |m| match m {
            AnyMatrix::Hyb(x) => Some(x),
            _ => None,
        })
    }

    /// Lossless conversion back to (usize-indexed) COO.
    pub fn to_coo_wide(&self) -> CooMatrix<T, usize> {
        match self {
            AnyMatrix::Coo(m) => m.to_coo(),
            AnyMatrix::Csr(m) => m.to_coo(),
            AnyMatrix::Ell(m) => m.to_coo(),
            AnyMatrix::Bcsr(m) => m.to_coo(),
            AnyMatrix::Bell(m) => m.to_coo(),
            AnyMatrix::Csr5(m) => m.to_coo(),
            AnyMatrix::Sell(m) => m.to_coo(),
            AnyMatrix::Hyb(m) => m.to_coo(),
        }
    }
}

/// The result of executing a conversion route: the converted matrix plus
/// the route that produced it (for plan metadata / reports).
#[derive(Debug, Clone)]
pub struct Converted<T, I = usize> {
    /// The matrix in the requested target format.
    pub matrix: AnyMatrix<T, I>,
    /// The full route, source first, target last (length 1 = no-op).
    pub route: Vec<SparseFormat>,
}

impl<T, I> Converted<T, I> {
    /// The route rendered as `coo->csr->bcsr` for reports and logs.
    pub fn route_string(&self) -> String {
        route_string(&self.route)
    }
}

/// Render a route as `coo->csr->bcsr`.
pub fn route_string(route: &[SparseFormat]) -> String {
    route
        .iter()
        .map(|f| f.name())
        .collect::<Vec<_>>()
        .join("->")
}

/// The `from_to` name of a conversion edge (`coo_csr`, `csr_bcsr`, …):
/// the label of its `convert` span. `coo_coo` is the identity hop that
/// canonicalises raw COO.
fn edge_name(from: SparseFormat, to: SparseFormat) -> &'static str {
    use SparseFormat as F;
    match (from, to) {
        (F::Coo, F::Coo) => "coo_coo",
        (F::Coo, F::Csr) => "coo_csr",
        (F::Csr, F::Coo) => "csr_coo",
        (F::Csr, F::Ell) => "csr_ell",
        (F::Csr, F::Bcsr) => "csr_bcsr",
        (F::Csr, F::Bell) => "csr_bell",
        (F::Csr, F::Sell) => "csr_sell",
        (F::Csr, F::Hyb) => "csr_hyb",
        (F::Csr, F::Csr5) => "csr_csr5",
        (F::Ell, F::Coo) => "ell_coo",
        (F::Bcsr, F::Coo) => "bcsr_coo",
        (F::Bell, F::Coo) => "bell_coo",
        (F::Sell, F::Coo) => "sell_coo",
        (F::Hyb, F::Coo) => "hyb_coo",
        (F::Csr5, F::Coo) => "csr5_coo",
        _ => "unregistered",
    }
}

/// Cost of one conversion hop, in (relative) bytes of traffic.
pub type EdgeCost = dyn Fn(SparseFormat, SparseFormat, &MatrixStats) -> f64 + Send + Sync;

/// Bytes a format occupies under the given stats, at f64 values and
/// usize indices. Blocked formats use a fill-inflation heuristic — the
/// numbers only need to *rank* candidate routes, not predict RSS.
pub fn estimated_format_bytes(format: SparseFormat, s: &MatrixStats) -> f64 {
    const VAL: f64 = 8.0;
    const IDX: f64 = 8.0;
    let nnz = s.nnz as f64;
    let rows = s.rows as f64;
    let block = s.block.max(1) as f64;
    match format {
        SparseFormat::Coo => nnz * (2.0 * IDX + VAL),
        SparseFormat::Csr => (rows + 1.0) * IDX + nnz * (IDX + VAL),
        SparseFormat::Ell => rows * s.max_row_nnz as f64 * (IDX + VAL),
        // σ-sorting keeps slices near the real nnz; slice tables are small.
        SparseFormat::Sell => nnz * (IDX + VAL) * 1.1 + rows * IDX,
        // HYB: regular part holds ~95% at ELL density plus a COO tail.
        SparseFormat::Hyb => nnz * (IDX + VAL) + 0.05 * nnz * (2.0 * IDX + VAL),
        // Blocked formats pay zero-fill inside blocks; 1.5× is the suite's
        // observed mid-range fill for b = 4 on the paper matrices.
        SparseFormat::Bcsr => {
            nnz * 1.5 * VAL + (nnz / (block * block)).max(1.0) * IDX + (rows / block + 1.0) * IDX
        }
        SparseFormat::Bell => nnz * 1.5 * VAL + (nnz / (block * block)).max(1.0) * IDX + rows * IDX,
        SparseFormat::Csr5 => {
            (rows + 1.0) * IDX + nnz * (IDX + VAL) + (nnz / 256.0 + 1.0) * 2.0 * IDX
        }
    }
}

/// The default edge cost: read the source arrays, write the destination.
pub fn default_edge_cost(from: SparseFormat, to: SparseFormat, s: &MatrixStats) -> f64 {
    estimated_format_bytes(from, s) + estimated_format_bytes(to, s)
}

/// A directed graph of the conversions the suite implements, with a
/// pluggable per-hop cost model and Dijkstra routing.
pub struct ConversionGraph {
    edges: Vec<(SparseFormat, SparseFormat)>,
    cost: Box<EdgeCost>,
}

impl std::fmt::Debug for ConversionGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConversionGraph")
            .field("edges", &self.edges)
            .finish_non_exhaustive()
    }
}

impl Default for ConversionGraph {
    fn default() -> Self {
        Self::standard()
    }
}

impl ConversionGraph {
    /// The suite's standard topology: COO↔CSR hub, the six CSR-sourced
    /// constructors, and every format's lossless `to_coo` back-edge.
    pub fn standard() -> Self {
        let mut edges = vec![
            (SparseFormat::Coo, SparseFormat::Csr),
            (SparseFormat::Csr, SparseFormat::Coo),
        ];
        for f in [
            SparseFormat::Ell,
            SparseFormat::Bcsr,
            SparseFormat::Bell,
            SparseFormat::Sell,
            SparseFormat::Hyb,
            SparseFormat::Csr5,
        ] {
            edges.push((SparseFormat::Csr, f));
            edges.push((f, SparseFormat::Coo));
        }
        ConversionGraph {
            edges,
            cost: Box::new(default_edge_cost),
        }
    }

    /// A process-wide shared instance with the default cost model.
    pub fn shared() -> &'static ConversionGraph {
        static SHARED: OnceLock<ConversionGraph> = OnceLock::new();
        SHARED.get_or_init(ConversionGraph::standard)
    }

    /// Replace the cost model (e.g. with a machine-calibrated one).
    pub fn with_cost(
        mut self,
        cost: impl Fn(SparseFormat, SparseFormat, &MatrixStats) -> f64 + Send + Sync + 'static,
    ) -> Self {
        self.cost = Box::new(cost);
        self
    }

    /// The registered edges (for introspection and tests).
    pub fn edges(&self) -> &[(SparseFormat, SparseFormat)] {
        &self.edges
    }

    /// Cheapest route from `from` to `to` under the cost model, inclusive
    /// of both endpoints (`route(f, f)` is `[f]`).
    pub fn route(
        &self,
        from: SparseFormat,
        to: SparseFormat,
        stats: &MatrixStats,
    ) -> Result<Vec<SparseFormat>, SparseError> {
        let idx = |f: SparseFormat| SparseFormat::ALL.iter().position(|&g| g == f).unwrap_or(0);
        let n = SparseFormat::ALL.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut done = vec![false; n];
        dist[idx(from)] = 0.0;

        // Dijkstra by repeated selection: eight nodes, no heap needed.
        for _ in 0..n {
            let u = match (0..n)
                .filter(|&u| !done[u] && dist[u].is_finite())
                .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))
            {
                Some(u) => u,
                None => break,
            };
            done[u] = true;
            if SparseFormat::ALL[u] == to {
                break;
            }
            for &(src, dst) in &self.edges {
                if src != SparseFormat::ALL[u] {
                    continue;
                }
                let v = idx(dst);
                let d = dist[u] + (self.cost)(src, dst, stats).max(0.0);
                if d < dist[v] {
                    dist[v] = d;
                    prev[v] = Some(u);
                }
            }
        }

        if !dist[idx(to)].is_finite() {
            return Err(SparseError::NoRoute { from, to });
        }
        let mut route = vec![to];
        let mut at = idx(to);
        while let Some(p) = prev[at] {
            route.push(SparseFormat::ALL[p]);
            at = p;
        }
        route.reverse();
        Ok(route)
    }

    /// Convert a COO matrix to `target` along the cheapest route. The
    /// source is only cloned when `target` is COO itself; the first hop
    /// reads it by reference.
    pub fn convert_coo<T: Scalar, I: Index>(
        &self,
        coo: &CooMatrix<T, I>,
        target: SparseFormat,
        cfg: &ConvertConfig,
    ) -> Result<Converted<T, I>, SparseError> {
        let stats = MatrixStats::of_coo(coo).with_block(cfg.block);
        let route = self.route(SparseFormat::Coo, target, &stats)?;
        let matrix = self.convert_coo_along(coo, &route, target, cfg)?;
        Ok(Converted { matrix, route })
    }

    /// Convert a COO matrix to `target` along a route chosen beforehand
    /// (a plan's), one `convert[<edge>]` span per hop. The route must
    /// lead from COO to `target` over registered edges; anything else is
    /// a `NoRoute` before any conversion work starts.
    pub fn convert_coo_along<T: Scalar, I: Index>(
        &self,
        coo: &CooMatrix<T, I>,
        route: &[SparseFormat],
        target: SparseFormat,
        cfg: &ConvertConfig,
    ) -> Result<AnyMatrix<T, I>, SparseError> {
        if route.first() != Some(&SparseFormat::Coo) || route.last() != Some(&target) {
            return Err(SparseError::NoRoute {
                from: SparseFormat::Coo,
                to: target,
            });
        }
        if let Some(hop) = route
            .windows(2)
            .find(|w| !self.edges.contains(&(w[0], w[1])))
        {
            return Err(SparseError::NoRoute {
                from: hop[0],
                to: hop[1],
            });
        }
        if route.len() == 1 {
            // The identity hop is still the COO "formatting" phase: raw
            // assembly COO (pushed, possibly unsorted with duplicate
            // coordinates) becomes the sorted, merged form the kernels'
            // row-aligned splits require.
            let _span =
                spmm_trace::span!("convert", edge_name(SparseFormat::Coo, SparseFormat::Coo));
            let mut out = coo.clone();
            if !out.is_sorted() {
                out.sort_and_sum_duplicates();
            }
            return Ok(AnyMatrix::Coo(out));
        }
        // The first hop reads the source by reference.
        let mut cur = {
            let _span = spmm_trace::span!("convert", edge_name(route[0], route[1]));
            match route[1] {
                SparseFormat::Csr => AnyMatrix::Csr(CsrMatrix::from_coo(coo)),
                to => {
                    return Err(SparseError::NoRoute {
                        from: SparseFormat::Coo,
                        to,
                    })
                }
            }
        };
        for &next in &route[2..] {
            let _span = spmm_trace::span!("convert", edge_name(cur.format(), next));
            cur = step(cur, next, cfg)?;
        }
        Ok(cur)
    }

    /// Convert between any two formats along the cheapest route,
    /// consuming the source.
    pub fn convert<T: Scalar, I: Index>(
        &self,
        matrix: AnyMatrix<T, I>,
        target: SparseFormat,
        cfg: &ConvertConfig,
    ) -> Result<Converted<T, I>, SparseError> {
        let from = matrix.format();
        let stats = {
            // Stats come from the wide COO view only when needed for
            // routing decisions; cheap fields first.
            let coo = matrix.to_coo_wide();
            MatrixStats::of_coo(&coo).with_block(cfg.block)
        };
        let route = self.route(from, target, &stats)?;
        let mut cur = matrix;
        for &next in &route[1..] {
            let _span = spmm_trace::span!("convert", edge_name(cur.format(), next));
            cur = step(cur, next, cfg)?;
        }
        Ok(Converted { matrix: cur, route })
    }
}

/// Execute one registered edge. Unregistered pairs return `NoRoute`
/// (defensive: `route` only emits registered edges).
fn step<T: Scalar, I: Index>(
    m: AnyMatrix<T, I>,
    to: SparseFormat,
    cfg: &ConvertConfig,
) -> Result<AnyMatrix<T, I>, SparseError> {
    let from = m.format();
    match (m, to) {
        (AnyMatrix::Coo(coo), SparseFormat::Csr) => Ok(AnyMatrix::Csr(CsrMatrix::from_coo(&coo))),
        (AnyMatrix::Csr(csr), SparseFormat::Ell) => Ok(AnyMatrix::Ell(EllMatrix::from_csr(&csr))),
        (AnyMatrix::Csr(csr), SparseFormat::Bcsr) => {
            Ok(AnyMatrix::Bcsr(BcsrMatrix::from_csr(&csr, cfg.block)?))
        }
        (AnyMatrix::Csr(csr), SparseFormat::Bell) => {
            Ok(AnyMatrix::Bell(BellMatrix::from_csr(&csr, cfg.block)?))
        }
        (AnyMatrix::Csr(csr), SparseFormat::Sell) => Ok(AnyMatrix::Sell(SellMatrix::from_csr(
            &csr,
            cfg.sell_c,
            cfg.sell_sigma,
        )?)),
        (AnyMatrix::Csr(csr), SparseFormat::Hyb) => Ok(AnyMatrix::Hyb(HybMatrix::from_csr(&csr)?)),
        (AnyMatrix::Csr(csr), SparseFormat::Csr5) => {
            Ok(AnyMatrix::Csr5(Csr5Matrix::from_csr(&csr)?))
        }
        (m, SparseFormat::Coo) => {
            let wide = m.to_coo_wide();
            let coo = wide
                .with_index_type::<I>()
                .ok_or_else(|| SparseError::ShapeMismatch {
                    detail: "index type too narrow for COO back-conversion".into(),
                })?;
            Ok(AnyMatrix::Coo(coo))
        }
        (_, to) => Err(SparseError::NoRoute { from, to }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix<f64> {
        CooMatrix::from_triplets(
            6,
            6,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 5, 5.0),
                (3, 3, 6.0),
                (4, 4, 7.0),
                (5, 0, 8.0),
                (5, 5, 9.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn coo_to_bcsr_routes_via_csr() {
        let g = ConversionGraph::standard();
        let stats = MatrixStats::of_coo(&sample());
        let route = g
            .route(SparseFormat::Coo, SparseFormat::Bcsr, &stats)
            .unwrap();
        assert_eq!(
            route,
            vec![SparseFormat::Coo, SparseFormat::Csr, SparseFormat::Bcsr]
        );
    }

    #[test]
    fn identity_route_is_single_node() {
        let g = ConversionGraph::standard();
        let stats = MatrixStats::of_coo(&sample());
        for f in SparseFormat::ALL {
            assert_eq!(g.route(f, f, &stats).unwrap(), vec![f]);
        }
    }

    #[test]
    fn every_pair_is_reachable() {
        let g = ConversionGraph::standard();
        let stats = MatrixStats::of_coo(&sample());
        for from in SparseFormat::ALL {
            for to in SparseFormat::ALL {
                let route = g.route(from, to, &stats).unwrap();
                assert_eq!(route.first(), Some(&from));
                assert_eq!(route.last(), Some(&to));
                // Every consecutive pair must be a registered edge.
                for pair in route.windows(2) {
                    assert!(
                        g.edges().contains(&(pair[0], pair[1])),
                        "{:?} not a registered edge",
                        pair
                    );
                }
            }
        }
    }

    #[test]
    fn convert_coo_matches_direct_constructors() {
        let coo = sample();
        let g = ConversionGraph::standard();
        let cfg = ConvertConfig::default();
        for target in SparseFormat::ALL {
            let converted = g.convert_coo(&coo, target, &cfg).unwrap();
            assert_eq!(converted.matrix.format(), target);
            let mut back = converted.matrix.to_coo_wide();
            back.prune_zeros();
            back.sort_and_sum_duplicates();
            assert_eq!(back, coo.to_coo(), "round-trip through {target} diverged");
        }
    }

    #[test]
    fn cross_format_convert_goes_home_through_coo() {
        let coo = sample();
        let g = ConversionGraph::standard();
        let cfg = ConvertConfig::default();
        let ell = g.convert_coo(&coo, SparseFormat::Ell, &cfg).unwrap().matrix;
        let converted = g.convert(ell, SparseFormat::Sell, &cfg).unwrap();
        assert_eq!(
            converted.route,
            vec![
                SparseFormat::Ell,
                SparseFormat::Coo,
                SparseFormat::Csr,
                SparseFormat::Sell
            ]
        );
        let mut back = converted.matrix.to_coo_wide();
        back.prune_zeros();
        back.sort_and_sum_duplicates();
        assert_eq!(back, coo.to_coo());
    }

    #[test]
    fn route_string_renders_arrows() {
        assert_eq!(
            route_string(&[SparseFormat::Coo, SparseFormat::Csr, SparseFormat::Bcsr]),
            "coo->csr->bcsr"
        );
    }

    #[test]
    fn injected_cost_changes_nothing_on_forced_topology() {
        // With a constant cost the hub route is still the only route.
        let g = ConversionGraph::standard().with_cost(|_, _, _| 1.0);
        let stats = MatrixStats::of_coo(&sample());
        let route = g
            .route(SparseFormat::Coo, SparseFormat::Hyb, &stats)
            .unwrap();
        assert_eq!(route.len(), 3);
        assert_eq!(route[1], SparseFormat::Csr);
    }

    #[test]
    fn bad_block_size_fails_typed() {
        let g = ConversionGraph::standard();
        let cfg = ConvertConfig::with_block(0);
        let err = g
            .convert_coo(&sample(), SparseFormat::Bcsr, &cfg)
            .unwrap_err();
        assert!(matches!(err, SparseError::InvalidBlockSize { .. }));
    }
}
