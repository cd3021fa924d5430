//! Criterion bench: the reduce-scatter primitive under the duplicate-density
//! regimes the paper discusses (distinct lanes ↔ converged lanes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gp_core::reduce_scatter::{reduce_scatter, Strategy};
use gp_simd::backend::Simd;
use gp_simd::engine::Engine;
use gp_simd::vector::{Mask16, LANES};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn batches(distinct: usize, n: usize, acc_len: i32) -> Vec<[i32; LANES]> {
    let mut rng = ChaCha8Rng::seed_from_u64(distinct as u64);
    (0..n)
        .map(|_| {
            let pool: Vec<i32> = (0..distinct).map(|_| rng.gen_range(0..acc_len)).collect();
            std::array::from_fn(|_| pool[rng.gen_range(0..distinct)])
        })
        .collect()
}

fn bench_reduce_scatter(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce_scatter");
    let acc_len = 4096;
    for distinct in [16usize, 4, 1] {
        let idx = batches(distinct, 512, acc_len as i32);
        for strategy in Strategy::ALL {
            group.bench_with_input(
                BenchmarkId::new(strategy.name(), distinct),
                &idx,
                |b, idx| {
                    let mut acc = vec![0f32; acc_len];
                    match gp_core::backends::engine() {
                        Engine::Native(s) => b.iter(|| {
                            s.vectorize(|| {
                                let vals = s.splat_f32(1.0);
                                for a in idx {
                                    let iv = s.from_array_i32(*a);
                                    let (acc, m) = (&mut acc, Mask16::ALL);
                                    unsafe { reduce_scatter(&s, strategy, acc, iv, vals, m) };
                                }
                            })
                        }),
                        Engine::Emulated(s) => b.iter(|| {
                            s.vectorize(|| {
                                let vals = s.splat_f32(1.0);
                                for a in idx {
                                    let iv = s.from_array_i32(*a);
                                    let (acc, m) = (&mut acc, Mask16::ALL);
                                    unsafe { reduce_scatter(&s, strategy, acc, iv, vals, m) };
                                }
                            })
                        }),
                    }
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_reduce_scatter);
criterion_main!(benches);
