//! Table 8: amortized (Section 4.2) vs exhaustive (Section 4.1) learning
//! curve generation — wall-clock runtime and resulting loss/unfairness for
//! the Moderate method on Fashion-MNIST.

use slice_tuner::{Strategy, TSchedule};
use st_bench::{rule, run_cell, trials, FamilySetup};
use st_curve::EstimationMode;
use std::time::Instant;

fn main() {
    // Bench-wide kernel default: `sharded` on multi-core hosts, `blocked`
    // on single-core containers; `ST_KERNEL` overrides (see docs/kernels.md).
    st_bench::init_bench_kernel();
    let setup = FamilySetup::fashion();
    let trials = trials().min(3);
    let cells: Vec<(usize, f64)> = if st_bench::quick() {
        vec![(100, 500.0)]
    } else {
        vec![(200, 2000.0), (300, 3000.0)]
    };

    println!("Table 8: exhaustive vs amortized curve generation (Moderate, {trials} trials)\n");
    println!(
        "{:<26} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "Config", "Loss", "Avg EER", "Max EER", "Runtime (s)", "Trainings"
    );
    rule(80);
    for (init, budget) in cells {
        for (name, mode) in [
            ("Exhaustive", EstimationMode::Exhaustive),
            ("Slice Tuner", EstimationMode::Amortized),
        ] {
            let cfg = setup.config(8).with_mode(mode);
            let start = Instant::now();
            let agg = run_cell(
                &setup.family,
                &[init; 10],
                setup.validation,
                budget,
                Strategy::Iterative(TSchedule::moderate()),
                &cfg,
                trials,
            );
            let secs = start.elapsed().as_secs_f64() / trials as f64;
            println!(
                "{:<26} {:>8.3} {:>10.3} {:>10.3} {:>12.1} {:>10.0}",
                format!("init {init}, B={budget}: {name}"),
                agg.loss.mean,
                agg.avg_eer.mean,
                agg.max_eer.mean,
                secs,
                agg.trainings
            );
        }
        rule(80);
    }
    println!("(paper shape: amortized is ~|S|x cheaper in trainings and ~11-12x faster in");
    println!(" wall clock, with equal-or-better loss and unfairness)");
}
