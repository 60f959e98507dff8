//! Extension experiment (Section 7 framing): Slice Tuner's Moderate method
//! vs a model-free ε-greedy rotting bandit with the same budget.
//!
//! The bandit observes rewards only by retraining after every pull and has
//! no fairness objective; Slice Tuner's learning curves let it plan the
//! whole allocation. Expected shape: comparable or better loss for Slice
//! Tuner, clearly better unfairness, far fewer trainings per unit budget.

use slice_tuner::{BanditParams, Strategy, TSchedule};
use st_bench::{rule, run_cell, trials, FamilySetup};

fn main() {
    // Bench-wide kernel default: `sharded` on multi-core hosts, `blocked`
    // on single-core containers; `ST_KERNEL` overrides (see docs/kernels.md).
    st_bench::init_bench_kernel();
    let setup = FamilySetup::census();
    let sizes = [40usize, 80, 120, 160];
    let budget = if st_bench::quick() { 200.0 } else { 500.0 };
    let trials = trials();

    println!(
        "Extension: Moderate vs rotting bandit (census analog, B = {budget}, {trials} trials)\n"
    );
    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>11}",
        "Method", "Loss", "Avg EER", "Max EER", "Trainings"
    );
    rule(60);
    for (name, strategy) in [
        ("Moderate", Strategy::Iterative(TSchedule::moderate())),
        (
            "Bandit ε=0.1",
            Strategy::RottingBandit(BanditParams {
                batch: 50.0,
                epsilon: 0.1,
            }),
        ),
        (
            "Bandit ε=0.3",
            Strategy::RottingBandit(BanditParams {
                batch: 50.0,
                epsilon: 0.3,
            }),
        ),
    ] {
        let agg = run_cell(
            &setup.family,
            &sizes,
            setup.validation,
            budget,
            strategy,
            &setup.config(12),
            trials,
        );
        println!(
            "{name:<16} {:>8.3} {:>10.3} {:>10.3} {:>11.0}",
            agg.loss.mean, agg.avg_eer.mean, agg.max_eer.mean, agg.trainings
        );
    }
    println!("\n(the bandit has no fairness term and pays one full retraining per pull;");
    println!(" Slice Tuner plans with learning curves instead)");
}
