//! Self-describing compressed payloads and their wire-size accounting.

use opt_tensor::{Matrix, Persist, PersistError, Reader, SparseMatrix, Writer};

/// Bytes per floating-point element on the wire.
///
/// The paper's cluster communicates activations and gradients in fp16, so
/// volume accounting uses 2 bytes per element even though our CPU numerics
/// are f32.
pub const FP16_BYTES: usize = 2;

/// Bytes per sparse index on the wire (top-k sends 32-bit indices).
const INDEX_BYTES: usize = 4;

/// A compressed gradient payload.
///
/// Payloads are self-describing: they carry enough metadata to reconstruct
/// a dense approximation via [`Compressed::decompress`] and to compute the
/// exact number of bytes they would occupy on the interconnect via
/// [`Compressed::wire_bytes`].
///
/// The [`Persist`] encoding leads with a one-byte tag — 0 dense, 1
/// low-rank, 2 sparse — shared by transport frames and checkpoint shards;
/// any other tag decodes to [`PersistError::BadTag`].
#[derive(Debug, Clone, PartialEq)]
pub enum Compressed {
    /// Uncompressed matrix (the baseline, and sends that skip compression).
    Dense {
        /// The matrix itself.
        matrix: Matrix,
    },
    /// PowerSGD low-rank factorization; decompresses to `p * q^T`.
    LowRank {
        /// Left factor, `rows x rank`, orthonormal columns.
        p: Matrix,
        /// Right factor, `cols x rank`.
        q: Matrix,
    },
    /// Top-k sparsification: `values[i]` belongs at flat index `indices[i]`.
    Sparse {
        /// Dense row count.
        rows: usize,
        /// Dense column count.
        cols: usize,
        /// Flat (row-major) indices of the kept elements.
        indices: Vec<u32>,
        /// Kept element values.
        values: Vec<f32>,
    },
}

impl Compressed {
    /// Reconstructs the dense approximation this payload encodes.
    ///
    /// # Example
    ///
    /// ```
    /// use opt_compress::Compressed;
    /// use opt_tensor::Matrix;
    /// let c = Compressed::Sparse {
    ///     rows: 2, cols: 2, indices: vec![3], values: vec![5.0],
    /// };
    /// assert_eq!(c.decompress()[(1, 1)], 5.0);
    /// ```
    pub fn decompress(&self) -> Matrix {
        let _span = opt_trace::begin(
            opt_trace::SpanKind::Decode,
            0,
            opt_trace::NO_MICRO,
            self.wire_bytes() as u64,
            0,
        );
        match self {
            Compressed::Dense { matrix } => matrix.clone(),
            Compressed::LowRank { p, q } => p.matmul_t(q),
            Compressed::Sparse {
                rows,
                cols,
                indices,
                values,
            } => {
                let mut m = Matrix::zeros(*rows, *cols);
                let slice = m.as_mut_slice();
                for (&idx, &v) in indices.iter().zip(values) {
                    slice[idx as usize] = v;
                }
                m
            }
        }
    }

    /// Subtracts this payload's dense approximation from `target` in
    /// place — the lazy-error residual update — taking the sparse
    /// fast path when the payload is sparse enough.
    ///
    /// Top-k ([`Compressed::Sparse`]) payloads whose density
    /// (`nnz / (rows * cols)`) is at or below
    /// [`opt_tensor::sparse_density_max`] are applied through
    /// [`SparseMatrix`] CSR kernels, touching only the stored entries;
    /// anything else falls back to [`Compressed::decompress`] +
    /// dense subtract. The two paths are **bit-identical**: the entries
    /// the sparse path skips subtract an exact `+0.0` in the dense path
    /// (`x - (+0.0) == x` bitwise), so the crossover knob only ever changes
    /// speed. The sparse path records its Decode span with
    /// [`opt_trace::FLAG_SPARSE`] so traces show which path ran.
    ///
    /// # Panics
    ///
    /// Panics if `target`'s shape differs from [`Compressed::dense_shape`].
    pub fn apply_sub(&self, target: &mut Matrix) {
        if let Compressed::Sparse {
            rows,
            cols,
            indices,
            values,
        } = self
        {
            let total = rows * cols;
            if total > 0 && values.len() as f32 <= opt_tensor::sparse_density_max() * total as f32 {
                let _span = opt_trace::begin(
                    opt_trace::SpanKind::Decode,
                    0,
                    opt_trace::NO_MICRO,
                    self.wire_bytes() as u64,
                    opt_trace::FLAG_SPARSE,
                );
                SparseMatrix::from_flat_payload(*rows, *cols, indices, values).sub_from(target);
                return;
            }
        }
        let approx = self.decompress();
        target.sub_assign(&approx);
    }

    /// Number of bytes this payload occupies on the interconnect, using the
    /// paper's fp16 wire format for floats and 4-byte sparse indices.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Compressed::Dense { matrix } => matrix.len() * FP16_BYTES,
            Compressed::LowRank { p, q } => (p.len() + q.len()) * FP16_BYTES,
            Compressed::Sparse {
                indices, values, ..
            } => indices.len() * INDEX_BYTES + values.len() * FP16_BYTES,
        }
    }

    /// Dense shape `(rows, cols)` of the gradient this payload encodes.
    pub fn dense_shape(&self) -> (usize, usize) {
        match self {
            Compressed::Dense { matrix } => matrix.shape(),
            Compressed::LowRank { p, q } => (p.rows(), q.rows()),
            Compressed::Sparse { rows, cols, .. } => (*rows, *cols),
        }
    }

    /// Compression ratio: dense wire bytes / compressed wire bytes.
    ///
    /// A ratio of 10 means the payload is 10x smaller than sending the
    /// dense fp16 matrix.
    pub fn ratio(&self) -> f64 {
        let (r, c) = self.dense_shape();
        let dense = (r * c * FP16_BYTES) as f64;
        dense / self.wire_bytes().max(1) as f64
    }
}

impl Persist for Compressed {
    fn persist(&self, w: &mut Writer) {
        match self {
            Compressed::Dense { matrix } => {
                w.u8(0);
                matrix.persist(w);
            }
            Compressed::LowRank { p, q } => {
                w.u8(1);
                p.persist(w);
                q.persist(w);
            }
            Compressed::Sparse {
                rows,
                cols,
                indices,
                values,
            } => {
                w.u8(2);
                w.usize(*rows);
                w.usize(*cols);
                w.usize(indices.len());
                for &i in indices {
                    w.u32(i);
                }
                for &v in values {
                    w.f32(v);
                }
            }
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.u8()? {
            0 => Ok(Compressed::Dense {
                matrix: Matrix::restore(r)?,
            }),
            1 => Ok(Compressed::LowRank {
                p: Matrix::restore(r)?,
                q: Matrix::restore(r)?,
            }),
            2 => {
                let rows = r.usize()?;
                let cols = r.usize()?;
                let len = rows.checked_mul(cols).ok_or(PersistError::Invalid {
                    what: "sparse shape overflows",
                })?;
                let n = r.checked_len(4 + 4)?;
                let mut indices = Vec::with_capacity(n);
                for _ in 0..n {
                    indices.push(r.u32()?);
                }
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(r.f32()?);
                }
                if indices.iter().any(|&i| i as usize >= len) {
                    return Err(PersistError::Invalid {
                        what: "sparse index out of bounds",
                    });
                }
                Ok(Compressed::Sparse {
                    rows,
                    cols,
                    indices,
                    values,
                })
            }
            tag => Err(PersistError::BadTag {
                what: "Compressed",
                tag,
            }),
        }
    }

    fn persist_len(&self) -> usize {
        // Arithmetic mirror of `persist`, so the zero-copy transport can
        // account wire bytes without serializing (one tag byte plus the
        // per-variant fields).
        1 + match self {
            Compressed::Dense { matrix } => matrix.persist_len(),
            Compressed::LowRank { p, q } => p.persist_len() + q.persist_len(),
            Compressed::Sparse {
                indices, values, ..
            } => 8 + 8 + 8 + 4 * indices.len() + 4 * values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        let c = Compressed::Dense { matrix: m.clone() };
        assert_eq!(c.decompress(), m);
        assert_eq!(c.wire_bytes(), 4 * FP16_BYTES);
        assert_eq!(c.dense_shape(), (2, 2));
        assert!((c.ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn lowrank_decompress_is_outer_product() {
        let p = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let q = Matrix::from_rows(&[&[3.0], &[4.0], &[5.0]]);
        let c = Compressed::LowRank { p, q };
        let m = c.decompress();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 10.0);
        assert_eq!(c.dense_shape(), (2, 3));
    }

    #[test]
    fn sparse_scatter() {
        let c = Compressed::Sparse {
            rows: 2,
            cols: 3,
            indices: vec![0, 5],
            values: vec![7.0, -1.0],
        };
        let m = c.decompress();
        assert_eq!(m[(0, 0)], 7.0);
        assert_eq!(m[(1, 2)], -1.0);
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(c.wire_bytes(), 2 * 4 + 2 * FP16_BYTES);
    }

    /// One payload of each variant.
    fn every_variant() -> Vec<Compressed> {
        vec![
            Compressed::Dense {
                matrix: Matrix::from_rows(&[&[1.0, -2.0]]),
            },
            Compressed::LowRank {
                p: Matrix::full(3, 2, 0.5),
                q: Matrix::full(4, 2, -1.5),
            },
            Compressed::Sparse {
                rows: 2,
                cols: 3,
                indices: vec![0, 5],
                values: vec![7.0, -1.0],
            },
        ]
    }

    #[test]
    fn persist_roundtrip_every_variant() {
        for (tag, p) in every_variant().into_iter().enumerate() {
            let bytes = p.to_bytes();
            assert_eq!(usize::from(bytes[0]), tag, "wire tag of {p:?}");
            let back = Compressed::from_bytes(&bytes).expect("roundtrip");
            assert_eq!(back, p);
        }
        // Tags past the three variants are not payloads.
        for tag in [3u8, 4, 255] {
            let mut bytes = Compressed::Dense {
                matrix: Matrix::zeros(2, 2),
            }
            .to_bytes();
            bytes[0] = tag;
            assert_eq!(
                Compressed::from_bytes(&bytes),
                Err(PersistError::BadTag {
                    what: "Compressed",
                    tag
                })
            );
        }
    }

    #[test]
    fn persist_len_matches_encoded_length_every_variant() {
        for p in every_variant() {
            assert_eq!(p.persist_len(), p.to_bytes().len(), "variant {p:?}");
        }
    }

    #[test]
    fn apply_sub_sparse_and_dense_paths_are_bit_identical() {
        use opt_tensor::{set_sparse_density_max, sparse_density_max, SeedStream};
        let mut rng = SeedStream::new(42);
        let base = rng.uniform_matrix(6, 7, 1.0);
        let payloads = vec![
            Compressed::Sparse {
                rows: 6,
                cols: 7,
                indices: vec![0, 9, 13, 41],
                values: vec![0.5, -1.25, 2.0, -0.0625],
            },
            // Never sparse-eligible; exercises the fallback arm.
            Compressed::Dense {
                matrix: rng.uniform_matrix(6, 7, 1.0),
            },
        ];
        let orig = sparse_density_max();
        for payload in payloads {
            let mut dense_path = base.clone();
            set_sparse_density_max(0.0); // force densify-then-dense
            payload.apply_sub(&mut dense_path);
            let mut sparse_path = base.clone();
            set_sparse_density_max(1.0); // force the sparse path where eligible
            payload.apply_sub(&mut sparse_path);
            for (a, b) in sparse_path.as_slice().iter().zip(dense_path.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "variant {payload:?}");
            }
            // And both agree with the reference spelled out longhand.
            let mut reference = base.clone();
            reference.sub_assign(&payload.decompress());
            for (a, b) in sparse_path.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "variant {payload:?}");
            }
        }
        set_sparse_density_max(orig);
    }

    #[test]
    fn persist_rejects_out_of_bounds_sparse_index() {
        let bad = Compressed::Sparse {
            rows: 2,
            cols: 2,
            indices: vec![9],
            values: vec![1.0],
        };
        assert!(Compressed::from_bytes(&bad.to_bytes()).is_err());
    }

    #[test]
    fn ratio_reflects_lowrank_savings() {
        // 100x100 dense vs rank-2 factors (100x2 + 100x2).
        let p = Matrix::zeros(100, 2);
        let q = Matrix::zeros(100, 2);
        let c = Compressed::LowRank { p, q };
        assert!((c.ratio() - 25.0).abs() < 1e-9);
    }
}
