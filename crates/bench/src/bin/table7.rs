//! Figure 11 + Table 7: small slices with unreliable learning curves.
//!
//! Fashion-MNIST with initial size L = 30 and B = 500: the fitted curves
//! are noisy (Figure 11), yet Slice Tuner still beats the baselines
//! because it only needs the curves' *relative* ordering.

use slice_tuner::{PoolSource, SliceTuner, Strategy, TSchedule};
use st_bench::{rule, run_cell, trials, FamilySetup};
use st_data::SlicedDataset;

fn main() {
    // Bench-wide kernel default: `sharded` on multi-core hosts, `blocked`
    // on single-core containers; `ST_KERNEL` overrides (see docs/kernels.md).
    st_bench::init_bench_kernel();
    let setup = FamilySetup::fashion();
    let init = 30usize;
    let budget = 500.0;
    let sizes = vec![init; 10];
    let trials = trials();

    // Figure 11: show two noisy small-slice curve fits.
    let ds = SlicedDataset::generate(&setup.family, &sizes, setup.validation, 55);
    let mut src = PoolSource::new(setup.family.clone(), 55);
    let tuner = SliceTuner::new(ds, &mut src, setup.config(55));
    let curves = tuner.estimate_curves(0);
    println!("Figure 11: noisy learning curves at slice size {init}");
    for s in [4usize, 7] {
        let name = setup.family.slice_names()[s];
        println!(
            "  slice {name:<12} y = {:.3}x^(-{:.3})",
            curves[s].b, curves[s].a
        );
    }

    println!("\nTable 7: loss and unfairness with small slices (init {init}, B = {budget}, {trials} trials)");
    println!(
        "{:<14} {:>8} {:>10} {:>10}",
        "Method", "Loss", "Avg EER", "Max EER"
    );
    rule(46);
    let methods = [
        ("Uniform", Strategy::Uniform),
        ("Water filling", Strategy::WaterFilling),
        ("Moderate", Strategy::Iterative(TSchedule::moderate())),
    ];
    let mut cfg = setup.config(5);
    cfg.min_slice_size = init;
    let orig = run_cell(
        &setup.family,
        &sizes,
        setup.validation,
        0.0,
        Strategy::Uniform,
        &cfg,
        trials,
    );
    println!(
        "{:<14} {:>8.3} {:>10.3} {:>10.3}",
        "Original", orig.original_loss.mean, orig.original_avg_eer.mean, orig.original_max_eer.mean
    );
    for (name, strategy) in &methods {
        let agg = run_cell(
            &setup.family,
            &sizes,
            setup.validation,
            budget,
            *strategy,
            &cfg,
            trials,
        );
        println!(
            "{name:<14} {:>8.3} {:>10.3} {:>10.3}",
            agg.loss.mean, agg.avg_eer.mean, agg.max_eer.mean
        );
    }
    println!("\n(paper shape: even with unreliable curves, Moderate ≤ both baselines;");
    println!(" with equal initial sizes Uniform and Water filling coincide)");
}
