//! Ablation — reduce-scatter strategy choice across convergence regimes.
//!
//! The paper argues conflict detection suits the *early* move phase (most
//! lanes hold distinct communities) while in-vector reduction suits the
//! *late* phase (lanes collapse onto one community). This ablation isolates
//! that claim: the raw reduce-scatter primitive is driven with index
//! vectors of controlled duplicate density, and each strategy's modeled
//! cycles and measured wall time are reported per regime.

use gp_bench::harness::{print_header, BenchContext};
use gp_core::reduce_scatter::{reduce_scatter, Strategy};
use gp_metrics::report::{fmt_ratio, fmt_secs, Table};
use gp_metrics::timer::time_runs;
use gp_simd::backend::{Emulated, Simd};
use gp_simd::counted::Counted;
use gp_simd::cost::CASCADE_LAKE;
use gp_simd::counters;
use gp_simd::engine::Engine;
use gp_simd::vector::{Mask16, LANES};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Builds index vectors with the given number of distinct values per
/// vector — 16 models the early phase, 1 the converged phase.
fn index_batches(distinct: usize, batches: usize, acc_len: i32, seed: u64) -> Vec<[i32; LANES]> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..batches)
        .map(|_| {
            let pool: Vec<i32> = (0..distinct).map(|_| rng.gen_range(0..acc_len)).collect();
            std::array::from_fn(|_| pool[rng.gen_range(0..distinct)])
        })
        .collect()
}

fn run_batches<S: Simd>(
    s: &S,
    strategy: Strategy,
    batches: &[[i32; LANES]],
    acc: &mut [f32],
) {
    s.vectorize(|| {
        let vals = s.splat_f32(1.0);
        for idx in batches {
            let iv = s.from_array_i32(*idx);
            // SAFETY: indices were drawn in 0..acc.len().
            unsafe { reduce_scatter(s, strategy, acc, iv, vals, Mask16::ALL) };
        }
    })
}

fn main() {
    let ctx = BenchContext::from_env();
    print_header("Ablation: reduce-scatter strategies", &ctx);
    let acc_len = 4096;
    let batches_n = 2048;

    let mut table = Table::new(
        "Reduce-scatter strategy vs duplicate density (distinct communities per 16 lanes)",
        &[
            "distinct/vec",
            "strategy",
            "measured wall",
            "CLX modeled cycles",
            "vs scalar (CLX)",
        ],
    );
    for distinct in [16usize, 8, 4, 2, 1] {
        let batches = index_batches(distinct, batches_n, acc_len as i32, distinct as u64);
        // Baseline modeled cycles: the scalar strategy.
        let (_, scalar_counts) = counters::counted_run(|| {
            let s: Counted<Emulated> = Counted::new(Emulated);
            let mut acc = vec![0f32; acc_len];
            run_batches(&s, Strategy::Scalar, &batches, &mut acc);
        });
        let scalar_cycles = CASCADE_LAKE.cycles(&scalar_counts);

        for strategy in Strategy::ALL {
            let wall = match gp_core::backends::engine() {
                Engine::Native(s) => {
                    let mut acc = vec![0f32; acc_len];
                    time_runs(&ctx.timing, |_| run_batches(&s, strategy, &batches, &mut acc))
                }
                Engine::Emulated(s) => {
                    let mut acc = vec![0f32; acc_len];
                    time_runs(&ctx.timing, |_| run_batches(&s, strategy, &batches, &mut acc))
                }
            };
            let (_, counts) = counters::counted_run(|| {
                let s: Counted<Emulated> = Counted::new(Emulated);
                let mut acc = vec![0f32; acc_len];
                run_batches(&s, strategy, &batches, &mut acc);
            });
            let cycles = CASCADE_LAKE.cycles(&counts);
            table.row(&[
                distinct.to_string(),
                strategy.name().to_string(),
                fmt_secs(wall.mean),
                format!("{cycles:.0}"),
                fmt_ratio(scalar_cycles / cycles),
            ]);
        }
    }
    ctx.emit(&table);
    if !ctx.csv {
        println!("\nexpected: conflict-detect wins at 16 distinct; in-vector-reduce wins at 1");
    }
}
