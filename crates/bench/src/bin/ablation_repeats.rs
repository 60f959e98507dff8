//! Ablation: how many curves should be averaged per slice?
//!
//! Section 4.1: "We further improve reliability by drawing multiple curves
//! (we use 5) and averaging them at the expense of more computation." This
//! bin quantifies that tradeoff: for R ∈ {1, 2, 5}, re-estimate each
//! slice's curve across several independent streams and report the spread
//! of the fitted decay exponent `a` (the quantity the optimizer ranks
//! slices by) and the number of model trainings paid.

use slice_tuner::{PoolSource, SliceTuner, Strategy};
use st_bench::{rule, FamilySetup};
use st_data::SlicedDataset;
use st_linalg::RunningStats;

fn main() {
    // Bench-wide kernel default: `sharded` on multi-core hosts, `blocked`
    // on single-core containers; `ST_KERNEL` overrides (see docs/kernels.md).
    st_bench::init_bench_kernel();
    let setup = FamilySetup::fashion();
    let streams = 5u64; // independent re-estimates to measure spread
    println!(
        "Ablation: curve-averaging count R (fashion, init {}, {} streams)\n",
        setup.initial, streams
    );
    println!(
        "{:<4} {:>22} {:>22} {:>12}",
        "R", "mean std(a) per slice", "worst std(a)", "trainings"
    );
    rule(66);

    for repeats in [1usize, 2, 5] {
        let mut per_slice_stats: Vec<RunningStats> =
            vec![RunningStats::new(); setup.family.num_slices()];
        let mut trainings = 0usize;

        for stream in 0..streams {
            let ds =
                SlicedDataset::generate(&setup.family, &setup.equal_sizes(), setup.validation, 42);
            let mut src = PoolSource::new(setup.family.clone(), 42);
            let mut cfg = setup.config(7);
            cfg.repeats = repeats;
            let tuner = SliceTuner::new(ds, &mut src, cfg);
            let curves = tuner.estimate_curves(stream);
            trainings += tuner.trainings();
            for (stat, c) in per_slice_stats.iter_mut().zip(&curves) {
                stat.push(c.a);
            }
        }

        let stds: Vec<f64> = per_slice_stats.iter().map(|s| s.std_dev()).collect();
        let mean_std = st_linalg::mean(&stds);
        let worst = stds.iter().cloned().fold(0.0, f64::max);
        println!(
            "{:<4} {:>22.4} {:>22.4} {:>12}",
            repeats, mean_std, worst, trainings
        );
    }

    println!();
    println!("(expected shape: std(a) shrinks as R grows; trainings scale linearly in R —");
    println!(" the paper's R = 5 buys reliability with compute, not with data budget)");

    // Downstream check: does R actually change what One-shot does?
    println!("\nDownstream allocations (One-shot, same seed, varying R):");
    for repeats in [1usize, 5] {
        let ds = SlicedDataset::generate(&setup.family, &setup.equal_sizes(), setup.validation, 42);
        let mut src = PoolSource::new(setup.family.clone(), 42);
        let mut cfg = setup.config(7);
        cfg.repeats = repeats;
        let mut tuner = SliceTuner::new(ds, &mut src, cfg);
        let result = tuner.run(Strategy::OneShot, setup.scaled_budget());
        println!(
            "  R = {repeats}: {}",
            st_bench::fmt_counts(
                &result
                    .acquired
                    .iter()
                    .map(|&a| a as f64)
                    .collect::<Vec<_>>(),
            )
        );
    }
}
