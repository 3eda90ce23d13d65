//! Dense embedding matrices with AdaGrad state.

use saga_core::persist::codec::{self, BinCodec, Reader};
use saga_core::rng::SplitMix64;
use saga_core::SagaError;

/// An `n × dim` embedding matrix with per-element AdaGrad accumulators.
///
/// AdaGrad keeps shallow-model training robust to the heavy-tailed degree
/// distribution of open-domain KGs (popular entities receive many more
/// updates), which is what PBG/DGL-KE/Marius all use.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    dim: usize,
    data: Vec<f32>,
    /// Sum of squared gradients, same shape as `data`.
    grad_sq: Vec<f32>,
}

impl EmbeddingTable {
    /// Initializes `n` rows uniformly in `[-b, b]` with `b = 1/sqrt(dim)`.
    pub fn init(n: usize, dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "dim must be positive");
        let mut rng = SplitMix64::new(seed);
        let bound = 1.0 / (dim as f32).sqrt();
        let data = (0..n * dim).map(|_| rng.gen_range(-bound..bound)).collect();
        Self { dim, data, grad_sq: vec![0.0; n * dim] }
    }

    /// An all-zero table (scratch buffers; no RNG cost).
    pub fn zeros(n: usize, dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        Self { dim, data: vec![0.0; n * dim], grad_sq: vec![0.0; n * dim] }
    }

    /// Adds the delta `newer[src_row] - older[src_row]` onto `self[dst]`
    /// (data and AdaGrad state). Used to merge bucket-local parameter
    /// updates back into shared state.
    #[inline]
    pub fn apply_row_delta(
        &mut self,
        dst: usize,
        newer: &EmbeddingTable,
        older: &EmbeddingTable,
        src_row: usize,
    ) {
        debug_assert_eq!(self.dim, newer.dim);
        debug_assert_eq!(self.dim, older.dim);
        let d = self.dim;
        for j in 0..d {
            self.data[dst * d + j] += newer.data[src_row * d + j] - older.data[src_row * d + j];
            self.grad_sq[dst * d + j] +=
                newer.grad_sq[src_row * d + j] - older.grad_sq[src_row * d + j];
        }
    }

    /// Copies one row (data and AdaGrad state) from another table.
    #[inline]
    pub fn copy_row_from(&mut self, dst: usize, src: &EmbeddingTable, src_row: usize) {
        debug_assert_eq!(self.dim, src.dim);
        let d = self.dim;
        self.data[dst * d..(dst + 1) * d]
            .copy_from_slice(&src.data[src_row * d..(src_row + 1) * d]);
        self.grad_sq[dst * d..(dst + 1) * d]
            .copy_from_slice(&src.grad_sq[src_row * d..(src_row + 1) * d]);
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True when the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable view of row `i` (bypasses AdaGrad; used by tests/import).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Applies one AdaGrad step to row `i`: `x -= lr * g / sqrt(G + eps)`,
    /// where `G` accumulates `g²` per element.
    pub fn adagrad_update(&mut self, i: usize, grad: &[f32], lr: f32) {
        debug_assert_eq!(grad.len(), self.dim);
        let start = i * self.dim;
        for (j, &g) in grad.iter().enumerate() {
            let idx = start + j;
            self.grad_sq[idx] += g * g;
            self.data[idx] -= lr * g / (self.grad_sq[idx].sqrt() + 1e-8);
        }
    }

    /// L2-normalizes row `i` if its norm exceeds 1 (TransE's constraint).
    pub fn clip_row_to_unit_ball(&mut self, i: usize) {
        let row = self.row_mut(i);
        let n: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
        if n > 1.0 {
            for x in row {
                *x /= n;
            }
        }
    }

    /// Writes `sub` back over rows starting at `lo`.
    pub fn write_rows(&mut self, lo: usize, sub: &EmbeddingTable) {
        assert_eq!(sub.dim, self.dim);
        let n = sub.len();
        self.data[lo * self.dim..(lo + n) * self.dim].copy_from_slice(&sub.data);
        self.grad_sq[lo * self.dim..(lo + n) * self.dim].copy_from_slice(&sub.grad_sq);
    }

    /// All rows as `(index, slice)` pairs.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &[f32])> {
        (0..self.len()).map(move |i| (i, self.row(i)))
    }

    /// The table's [`BinCodec`] encoding — the bytes tests compare when
    /// they require bit-identical models.
    pub fn to_bytes(&self) -> Vec<u8> {
        codec::to_bytes(self)
    }

    /// Bytes the [`BinCodec`] encoding of an `n × dim` table takes.
    pub(crate) fn encoded_len(n: usize, dim: usize) -> usize {
        8 + 8 + 8 * n * dim
    }
}

/// Layout: `dim` and the row count, then the `n × dim` data values and the
/// `n × dim` AdaGrad values, each as little-endian f32 bits.
impl BinCodec for EmbeddingTable {
    fn enc(&self, out: &mut Vec<u8>) {
        self.dim.enc(out);
        self.len().enc(out);
        out.reserve(8 * self.data.len());
        for x in self.data.iter().chain(&self.grad_sq) {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn dec(rd: &mut Reader<'_>) -> saga_core::Result<Self> {
        let dim = usize::dec(rd)?;
        let n = usize::dec(rd)?;
        if dim == 0 {
            return Err(SagaError::Corrupt("embedding table dim is zero".into()));
        }
        let elems = n
            .checked_mul(dim)
            .filter(|e| e.checked_mul(8).is_some())
            .ok_or_else(|| SagaError::Corrupt("embedding table shape overflows".into()))?;
        let raw = rd.bytes(8 * elems)?;
        let f32s = |b: &[u8]| -> Vec<f32> {
            b.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
        };
        let (data, grad_sq) = raw.split_at(4 * elems);
        Ok(Self { dim, data: f32s(data), grad_sq: f32s(grad_sq) })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn init_shape_and_range() {
        let t = EmbeddingTable::init(10, 8, 1);
        assert_eq!(t.len(), 10);
        assert_eq!(t.dim(), 8);
        let bound = 1.0 / (8f32).sqrt();
        for (_, row) in t.rows() {
            assert!(row.iter().all(|x| x.abs() <= bound));
        }
    }

    #[test]
    fn init_is_deterministic() {
        let a = EmbeddingTable::init(5, 4, 9);
        let b = EmbeddingTable::init(5, 4, 9);
        assert_eq!(a.row(3), b.row(3));
        let c = EmbeddingTable::init(5, 4, 10);
        assert_ne!(a.row(3), c.row(3));
    }

    #[test]
    fn adagrad_moves_against_gradient_and_decays() {
        let mut t = EmbeddingTable::init(1, 2, 0);
        let before = t.row(0).to_vec();
        t.adagrad_update(0, &[1.0, -1.0], 0.1);
        let after1 = t.row(0).to_vec();
        assert!(after1[0] < before[0]);
        assert!(after1[1] > before[1]);
        // Second identical step moves less (accumulated G grows).
        let step1 = (before[0] - after1[0]).abs();
        t.adagrad_update(0, &[1.0, -1.0], 0.1);
        let after2 = t.row(0).to_vec();
        let step2 = (after1[0] - after2[0]).abs();
        assert!(step2 < step1);
    }

    #[test]
    fn clip_constrains_norm() {
        let mut t = EmbeddingTable::init(1, 2, 0);
        t.row_mut(0).copy_from_slice(&[3.0, 4.0]);
        t.clip_row_to_unit_ball(0);
        let n: f32 = t.row(0).iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((n - 1.0).abs() < 1e-6);
        // Inside the ball: untouched.
        t.row_mut(0).copy_from_slice(&[0.1, 0.2]);
        t.clip_row_to_unit_ball(0);
        assert_eq!(t.row(0), &[0.1, 0.2]);
    }

    #[test]
    fn byte_codec_round_trips_data_and_adagrad_state() {
        let mut t = EmbeddingTable::init(7, 5, 11);
        t.adagrad_update(3, &[1.0, -0.5, 0.25, 2.0, -3.0], 0.1);
        let bytes = t.to_bytes();
        assert_eq!(bytes.len(), EmbeddingTable::encoded_len(7, 5));
        let back: EmbeddingTable = codec::from_bytes(&bytes).unwrap();
        assert_eq!(back.dim(), 5);
        assert_eq!(back.len(), 7);
        assert_eq!(back.data, t.data);
        assert_eq!(back.grad_sq, t.grad_sq);
        // Any truncation or padding is rejected.
        assert!(codec::from_bytes::<EmbeddingTable>(&bytes[..bytes.len() - 1]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(codec::from_bytes::<EmbeddingTable>(&padded).is_err());
        assert!(codec::from_bytes::<EmbeddingTable>(&bytes[..4]).is_err());
    }

    #[test]
    fn write_rows_overwrites_from_lo() {
        let mut t = EmbeddingTable::init(10, 4, 2);
        let (row3, row7) = (t.row(3).to_vec(), t.row(7).to_vec());
        let mut sub = EmbeddingTable::init(3, 4, 5);
        sub.adagrad_update(1, &[1.0, -1.0, 0.5, 0.25], 0.1);
        t.write_rows(4, &sub);
        for i in 0..3 {
            assert_eq!(t.row(4 + i), sub.row(i));
        }
        assert_eq!(t.grad_sq[5 * 4..6 * 4], sub.grad_sq[4..8], "AdaGrad state moves too");
        assert_eq!((t.row(3), t.row(7)), (&row3[..], &row7[..]), "rows outside stay");
    }
}
