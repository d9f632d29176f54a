//! Substrate bench (DESIGN.md §6.1): serial vs Rayon-parallel sparse
//! matrix products on RadiX-Net layer matrices — the kernels everything
//! else stands on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use radix_sparse::ops;
use radix_sparse::{CsrMatrix, CyclicShift, DenseMatrix, Epilogue, Par, PreparedWeights};

fn layer(n: usize, degree: usize) -> CsrMatrix<f32> {
    CyclicShift::radix_submatrix::<u64>(n, degree, 1).map(|_| 1.0 / degree as f32)
}

fn activations(rows: usize, cols: usize) -> DenseMatrix<f32> {
    let mut m = DenseMatrix::zeros(rows, cols);
    for i in 0..rows {
        let r: &mut [f32] = m.row_mut(i);
        for (j, v) in r.iter_mut().enumerate() {
            *v = ((i * 31 + j * 17) % 13) as f32 * 0.07;
        }
    }
    m
}

fn bench_dense_spmm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm/dense_times_csr");
    for (n, degree, batch) in [
        (1024usize, 32usize, 64usize),
        (4096, 16, 64),
        (16384, 8, 32),
    ] {
        let w = layer(n, degree);
        let prepared = PreparedWeights::from_csr(w.clone());
        assert!(prepared.is_ell(), "RadiX layers have constant degree");
        let x = activations(batch, n);
        group.throughput(Throughput::Elements((batch * w.nnz()) as u64));
        let label = format!("n{n}_deg{degree}_b{batch}");
        // Baseline: generic CSR kernels, allocate-per-call.
        group.bench_with_input(BenchmarkId::new("csr_serial", &label), &(), |b, ()| {
            b.iter(|| black_box(ops::dense_spmm(&x, &w).unwrap()))
        });
        // Prepared ELL kernels into a reused buffer.
        let mut out = DenseMatrix::<f32>::zeros(batch, n);
        group.bench_with_input(BenchmarkId::new("prepared_serial", &label), &(), |b, ()| {
            b.iter(|| {
                prepared
                    .spmm(&x, &mut out, &Epilogue::identity(), Par::Serial)
                    .unwrap();
                black_box(out.as_slice().len())
            })
        });
        group.bench_with_input(BenchmarkId::new("prepared_rayon", &label), &(), |b, ()| {
            b.iter(|| {
                prepared
                    .spmm(&x, &mut out, &Epilogue::identity(), Par::Pool)
                    .unwrap();
                black_box(out.as_slice().len())
            })
        });
        // Prepared with the bias + clamp epilogue fused in (what the
        // Challenge inference loop actually runs).
        let epi = Epilogue::new(radix_sparse::Bias::Uniform(-0.5f32), |v: f32| {
            v.clamp(0.0, 32.0)
        });
        group.bench_with_input(BenchmarkId::new("prepared_fused", &label), &(), |b, ()| {
            b.iter(|| {
                prepared.spmm(&x, &mut out, &epi, Par::Serial).unwrap();
                black_box(out.as_slice().len())
            })
        });
    }
    group.finish();
}

fn bench_csr_csr(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm/csr_times_csr");
    for (n, degree) in [(1024usize, 32usize), (4096, 16)] {
        let a = layer(n, degree);
        let b_mat = layer(n, degree);
        let label = format!("n{n}_deg{degree}");
        group.bench_with_input(BenchmarkId::new("serial", &label), &(), |bch, ()| {
            bch.iter(|| black_box(ops::spmm(&a, &b_mat).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("rayon", &label), &(), |bch, ()| {
            bch.iter(|| black_box(ops::par_spmm(&a, &b_mat).unwrap()))
        });
    }
    group.finish();
}

fn bench_kron(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmm/kron_ones");
    let w = CyclicShift::radix_submatrix::<u64>(256, 4, 1);
    for d in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            b.iter(|| black_box(radix_sparse::kron_ones_left(d, d, &w)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_dense_spmm, bench_csr_csr, bench_kron
}
criterion_main!(benches);
