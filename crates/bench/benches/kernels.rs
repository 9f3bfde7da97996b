//! Criterion benches of the arithmetic kernels the RTL accelerates: NTT at
//! several sizes, coefficient-wise ops, and the two modular-reduction
//! datapaths — plus the CRC-32 integrity checksum every served frame
//! takes, per kernel lane.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hefv_math::dispatch;
use hefv_math::ntt::NttTable;
use hefv_math::primes::ntt_prime;
use hefv_math::zq::{Modulus, SlidingWindowTable};
use std::hint::black_box;

fn bench_ntt(c: &mut Criterion) {
    let mut g = c.benchmark_group("ntt");
    for n in [1024usize, 4096, 8192] {
        let q = ntt_prime(30, n, 0).unwrap();
        let table = NttTable::new(Modulus::new(q), n).unwrap();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 48271 + 3) % q).collect();
        g.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| {
                let mut x = a.clone();
                table.forward(&mut x);
                black_box(x)
            })
        });
        g.bench_with_input(BenchmarkId::new("inverse", n), &n, |b, _| {
            b.iter(|| {
                let mut x = a.clone();
                table.inverse(&mut x);
                black_box(x)
            })
        });
    }
    g.finish();
}

fn bench_coeffwise(c: &mut Criterion) {
    let n = 4096usize;
    let q = ntt_prime(30, n, 0).unwrap();
    let m = Modulus::new(q);
    let a: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 1) % q).collect();
    let b2: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 5) % q).collect();
    let mut g = c.benchmark_group("coeffwise_4096");
    g.bench_function("mul", |b| {
        b.iter(|| {
            let out: Vec<u64> = a.iter().zip(&b2).map(|(&x, &y)| m.mul(x, y)).collect();
            black_box(out)
        })
    });
    g.bench_function("add", |b| {
        b.iter(|| {
            let out: Vec<u64> = a.iter().zip(&b2).map(|(&x, &y)| m.add(x, y)).collect();
            black_box(out)
        })
    });
    g.finish();
}

fn bench_reduction(c: &mut Criterion) {
    let q = ntt_prime(30, 4096, 0).unwrap();
    let m = Modulus::new(q);
    let sw = SlidingWindowTable::new(&m);
    let inputs: Vec<u128> = (0..4096u128)
        .map(|i| (i * 1_000_003 + 7) * (i * 999_983 + 13))
        .collect();
    let mut g = c.benchmark_group("modular_reduction");
    g.bench_function("barrett", |b| {
        b.iter(|| {
            let s: u64 = inputs.iter().map(|&x| m.reduce_u128(x)).sum();
            black_box(s)
        })
    });
    g.bench_function("sliding_window(paper RTL)", |b| {
        b.iter(|| {
            let s: u64 = inputs
                .iter()
                .map(|&x| m.reduce_sliding_window(x, &sw))
                .sum();
            black_box(s)
        })
    });
    g.finish();
}

/// One `mult` request's two n = 4096 ciphertexts on the wire (≈ 393 KB),
/// on every lane this CPU can run.
fn bench_crc32(c: &mut Criterion) {
    let buf: Vec<u8> = (0..393_300u64)
        .map(|i| ((i * 2_654_435_761) >> 13) as u8)
        .collect();
    let mut g = c.benchmark_group("crc32_393KB");
    g.throughput(Throughput::Bytes(buf.len() as u64));
    for k in std::iter::once(dispatch::scalar_kernels()).chain(dispatch::avx2_kernels()) {
        g.bench_function(k.backend().name(), |b| b.iter(|| k.crc32(black_box(&buf))));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_ntt,
    bench_coeffwise,
    bench_reduction,
    bench_crc32
);
criterion_main!(benches);
