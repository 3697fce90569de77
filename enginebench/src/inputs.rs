//! The generated inputs of one suite matrix: the replica and its dense
//! operands, all derived from the run's seed.

use spmm_core::{CooMatrix, DenseMatrix, MatrixProperties};

/// One generated matrix with a B for every width its points use.
pub struct Inputs {
    /// Suite matrix name.
    pub name: &'static str,
    /// Replica scale.
    pub scale: f64,
    /// The replica, sorted row-major.
    pub coo: CooMatrix<f64>,
    /// Its Table 5.1 properties (what the planner reads).
    pub props: MatrixProperties,
    /// `(k, B)` pairs; the `k = 1` operand doubles as the SpMV vector.
    operands: Vec<(usize, DenseMatrix<f64>)>,
}

impl Inputs {
    /// Generate `name` at `scale` from `seed`, with a B for each width in
    /// `ks` and for `k = 1`.
    pub fn generate(
        name: &'static str,
        scale: f64,
        seed: u64,
        ks: impl IntoIterator<Item = usize>,
    ) -> Result<Inputs, String> {
        let spec =
            spmm_matgen::by_name(name).ok_or_else(|| format!("`{name}` is not a suite matrix"))?;
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(format!("scale {scale} for {name} is outside (0, 1]"));
        }
        let coo = spec.generate(scale, seed);
        let props = coo.properties();
        let mut operands: Vec<(usize, DenseMatrix<f64>)> = Vec::new();
        for k in ks.into_iter().chain([1]) {
            if operands.iter().all(|(have, _)| *have != k) {
                let b = spmm_matgen::gen::dense_b(coo.cols(), k, seed ^ 0xB ^ ((k as u64) << 20));
                operands.push((k, b));
            }
        }
        Ok(Inputs {
            name,
            scale,
            coo,
            props,
            operands,
        })
    }

    /// The dense operand of width `k`.
    pub fn b(&self, k: usize) -> &DenseMatrix<f64> {
        &self
            .operands
            .iter()
            .find(|(have, _)| *have == k)
            .expect("Inputs::generate made a B for every width a point uses")
            .1
    }

    /// The SpMV operand.
    pub fn x(&self) -> &[f64] {
        self.b(1).as_slice()
    }
}
