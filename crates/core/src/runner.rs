//! Experiment runner: settings, trials, and aggregation (Section 6).

use crate::acquire::PoolSource;
use crate::strategy::Strategy;
use crate::tuner::{RunResult, SliceTuner, TunerConfig};
use st_data::{split_seed, DatasetFamily, SlicedDataset};
use st_models::{per_slice_validation_losses, train_on_examples};

/// The three initial-size settings of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// Every slice starts with the same amount of data.
    Basic,
    /// "Many slices with low loss": most slices are already saturated, so
    /// spreading the budget equally (Uniform) wastes it.
    BadForUniform,
    /// "A large slice with high loss and a small slice with low loss":
    /// equalizing sizes (Water filling) pours budget into the slice that
    /// needs it least.
    BadForWaterFilling,
}

impl Setting {
    /// Display name matching Table 6's column headers.
    pub fn name(&self) -> &'static str {
        match self {
            Setting::Basic => "Basic",
            Setting::BadForUniform => "Bad for Uniform",
            Setting::BadForWaterFilling => "Bad for Water filling",
        }
    }

    /// Builds the initial size vector for a family.
    ///
    /// The pathological settings need to know which slices are easy/hard;
    /// that is probed by training one model at equal sizes and ranking the
    /// per-slice losses, so the construction works on any family.
    pub fn initial_sizes(&self, family: &DatasetFamily, base: usize, seed: u64) -> Vec<usize> {
        let n = family.num_slices();
        match self {
            Setting::Basic => vec![base; n],
            Setting::BadForUniform => {
                // The easiest ~70% of slices get 3x data (low loss, saturated);
                // the hardest keep the base amount and still need help.
                let order = probe_loss_order(family, base, seed);
                let easy_count = (n * 7).div_ceil(10);
                let mut sizes = vec![base; n];
                for &i in order.iter().take(easy_count) {
                    sizes[i] = base * 3;
                }
                sizes
            }
            Setting::BadForWaterFilling => {
                // Hardest slice: large but still lossy. Easiest slice: small
                // but already fine — Water filling will fill exactly the
                // wrong one.
                let order = probe_loss_order(family, base, seed);
                let easiest = order[0];
                let hardest = *order.last().expect("non-empty family");
                let mut sizes = vec![base; n];
                sizes[hardest] = base * 3;
                sizes[easiest] = (base / 3).max(1);
                sizes
            }
        }
    }
}

/// Ranks slices easiest (lowest probe loss) first.
fn probe_loss_order(family: &DatasetFamily, base: usize, seed: u64) -> Vec<usize> {
    let ds = SlicedDataset::generate(family, &vec![base; family.num_slices()], 200, seed);
    let cfg = st_models::TrainConfig {
        seed: split_seed(seed, 1),
        ..Default::default()
    };
    let model = train_on_examples(
        &ds.all_train(),
        family.feature_dim,
        family.num_classes,
        &st_models::ModelSpec::basic(),
        &cfg,
    );
    let losses = per_slice_validation_losses(&model, &ds);
    let mut order: Vec<usize> = (0..losses.len()).collect();
    order.sort_by(|&a, &b| losses[a].partial_cmp(&losses[b]).expect("finite losses"));
    order
}

/// Mean ± population-std summary of one metric across trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean across trials.
    pub mean: f64,
    /// Population standard deviation across trials.
    pub std: f64,
}

impl Summary {
    /// Summarizes samples.
    pub fn of(xs: &[f64]) -> Self {
        Summary {
            mean: st_linalg::mean(xs),
            std: st_linalg::std_dev(xs),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} ± {:.3}", self.mean, self.std)
    }
}

/// Aggregated outcome of repeated strategy runs.
#[derive(Debug, Clone)]
pub struct AggregateResult {
    /// Strategy evaluated.
    pub strategy: Strategy,
    /// Loss before acquisition.
    pub original_loss: Summary,
    /// Avg EER before acquisition.
    pub original_avg_eer: Summary,
    /// Max EER before acquisition.
    pub original_max_eer: Summary,
    /// Loss after acquisition + retraining.
    pub loss: Summary,
    /// Avg EER after.
    pub avg_eer: Summary,
    /// Max EER after.
    pub max_eer: Summary,
    /// Mean examples acquired per slice.
    pub acquired_mean: Vec<f64>,
    /// Mean iteration count.
    pub iterations: f64,
    /// Mean model trainings per run.
    pub trainings: f64,
    /// Individual trial results.
    pub trials: Vec<RunResult>,
}

impl AggregateResult {
    /// True when every aggregated metric and per-trial outcome matches
    /// `other` bit-for-bit.
    ///
    /// This is the comparison behind the workspace's determinism
    /// regressions (sequential vs parallel executor, cached vs uncached,
    /// `--jobs 1` vs `--jobs N`). `trainings` is deliberately excluded:
    /// curve-cache hits legitimately reduce training counts without
    /// affecting any result.
    pub fn bits_identical_to(&self, other: &Self) -> bool {
        let summary_eq = |a: &Summary, b: &Summary| {
            a.mean.to_bits() == b.mean.to_bits() && a.std.to_bits() == b.std.to_bits()
        };
        let vec_bits_eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let report_eq = |a: &crate::metrics::EvalReport, b: &crate::metrics::EvalReport| {
            a.overall_loss.to_bits() == b.overall_loss.to_bits()
                && a.avg_eer.to_bits() == b.avg_eer.to_bits()
                && a.max_eer.to_bits() == b.max_eer.to_bits()
                && vec_bits_eq(&a.per_slice_losses, &b.per_slice_losses)
        };
        self.trials.len() == other.trials.len()
            && self.trials.iter().zip(&other.trials).all(|(x, y)| {
                x.acquired == y.acquired
                    && x.iterations == y.iterations
                    && x.spent.to_bits() == y.spent.to_bits()
                    && report_eq(&x.original, &y.original)
                    && report_eq(&x.report, &y.report)
            })
            && summary_eq(&self.original_loss, &other.original_loss)
            && summary_eq(&self.original_avg_eer, &other.original_avg_eer)
            && summary_eq(&self.original_max_eer, &other.original_max_eer)
            && summary_eq(&self.loss, &other.loss)
            && summary_eq(&self.avg_eer, &other.avg_eer)
            && summary_eq(&self.max_eer, &other.max_eer)
            && vec_bits_eq(&self.acquired_mean, &other.acquired_mean)
            && self.iterations.to_bits() == other.iterations.to_bits()
    }
}

/// Runs one trial of an experiment: builds a fresh dataset, pool source,
/// and tuner from the seed derived for trial `t`, and runs the strategy.
///
/// This is the unit of work both the sequential [`run_trials`] and the
/// parallel [`run_trials_parallel`](crate::trials::run_trials_parallel)
/// executor dispatch, so the two aggregate bit-identically by construction:
/// every per-trial value is a function of `(inputs, t)` alone, never of
/// which thread ran it or in what order.
pub(crate) fn run_single_trial(
    family: &DatasetFamily,
    initial_sizes: &[usize],
    validation_size: usize,
    budget: f64,
    strategy: Strategy,
    config: &TunerConfig,
    t: usize,
) -> RunResult {
    let trial_seed = split_seed(config.seed, 0x7121A1 + t as u64);
    let ds = SlicedDataset::generate(family, initial_sizes, validation_size, trial_seed);
    let mut source = PoolSource::new(family.clone(), split_seed(trial_seed, 2));
    let mut config = config.clone().with_seed(trial_seed);
    if let Some(path) = config.checkpoint.take() {
        // Each trial checkpoints (and resumes) its own file; a shared path
        // would have concurrent trials clobbering each other's state.
        config.checkpoint = Some(format!("{path}.trial{t}"));
    }
    let mut tuner = SliceTuner::new(ds, &mut source, config);
    tuner.run(strategy, budget)
}

/// Runs `strategy` for `trials` independent seeds on fresh datasets and
/// aggregates the outcomes — the paper reports means over 10 trials.
///
/// Sequential; see
/// [`run_trials_parallel`](crate::trials::run_trials_parallel) for the
/// multi-threaded executor with identical output.
pub fn run_trials(
    family: &DatasetFamily,
    initial_sizes: &[usize],
    validation_size: usize,
    budget: f64,
    strategy: Strategy,
    config: &TunerConfig,
    trials: usize,
) -> AggregateResult {
    assert!(trials > 0, "need at least one trial");
    let results: Vec<RunResult> = (0..trials)
        .map(|t| {
            // Same isolation/retry envelope as the parallel executor, so
            // the two runners stay bit-identical fault handling included.
            match crate::trials::run_trial_caught(
                family,
                initial_sizes,
                validation_size,
                budget,
                strategy,
                config,
                t,
            ) {
                Ok(result) => result,
                Err(e) => panic!("{e}"),
            }
        })
        .collect();
    aggregate(strategy, results)
}

pub(crate) fn aggregate(strategy: Strategy, results: Vec<RunResult>) -> AggregateResult {
    let collect = |f: &dyn Fn(&RunResult) -> f64| -> Vec<f64> { results.iter().map(f).collect() };
    let n_slices = results[0].acquired.len();
    let acquired_mean: Vec<f64> = (0..n_slices)
        .map(|i| results.iter().map(|r| r.acquired[i] as f64).sum::<f64>() / results.len() as f64)
        .collect();
    AggregateResult {
        strategy,
        original_loss: Summary::of(&collect(&|r| r.original.overall_loss)),
        original_avg_eer: Summary::of(&collect(&|r| r.original.avg_eer)),
        original_max_eer: Summary::of(&collect(&|r| r.original.max_eer)),
        loss: Summary::of(&collect(&|r| r.report.overall_loss)),
        avg_eer: Summary::of(&collect(&|r| r.report.avg_eer)),
        max_eer: Summary::of(&collect(&|r| r.report.max_eer)),
        acquired_mean,
        iterations: st_linalg::mean(&collect(&|r| r.iterations as f64)),
        trainings: st_linalg::mean(&collect(&|r| r.trainings as f64)),
        trials: results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_data::families::census;
    use st_models::ModelSpec;

    fn quick_config() -> TunerConfig {
        let mut cfg = TunerConfig::new(ModelSpec::softmax());
        cfg.train.epochs = 8;
        cfg.fractions = vec![0.4, 0.7, 1.0];
        cfg.repeats = 1;
        cfg.threads = 1;
        cfg
    }

    #[test]
    fn basic_setting_is_equal_sizes() {
        let fam = census();
        assert_eq!(Setting::Basic.initial_sizes(&fam, 100, 1), vec![100; 4]);
    }

    #[test]
    fn pathological_settings_shape_sizes() {
        let fam = census();
        let bad_uni = Setting::BadForUniform.initial_sizes(&fam, 100, 1);
        assert!(
            bad_uni.iter().filter(|&&s| s == 300).count() >= 2,
            "{bad_uni:?}"
        );
        assert!(bad_uni.contains(&100));

        let bad_wf = Setting::BadForWaterFilling.initial_sizes(&fam, 100, 1);
        assert!(bad_wf.contains(&300), "{bad_wf:?}");
        assert!(bad_wf.contains(&33), "{bad_wf:?}");
    }

    #[test]
    fn settings_are_deterministic() {
        let fam = census();
        assert_eq!(
            Setting::BadForWaterFilling.initial_sizes(&fam, 90, 7),
            Setting::BadForWaterFilling.initial_sizes(&fam, 90, 7)
        );
    }

    #[test]
    fn summary_mean_and_std() {
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std, 1.0);
        assert_eq!(s.to_string(), "2.000 ± 1.000");
    }

    #[test]
    fn run_trials_aggregates_across_seeds() {
        let fam = census();
        let agg = run_trials(
            &fam,
            &[60; 4],
            60,
            120.0,
            Strategy::Uniform,
            &quick_config(),
            2,
        );
        assert_eq!(agg.trials.len(), 2);
        assert_eq!(agg.acquired_mean, vec![30.0; 4]);
        assert!(agg.loss.mean.is_finite());
        // Trials use different datasets, so losses should not be identical.
        let l0 = agg.trials[0].report.overall_loss;
        let l1 = agg.trials[1].report.overall_loss;
        assert_ne!(l0, l1);
    }

    #[test]
    fn acquisition_improves_over_original() {
        let fam = census();
        let agg = run_trials(
            &fam,
            &[40; 4],
            80,
            400.0,
            Strategy::WaterFilling,
            &quick_config(),
            3,
        );
        assert!(
            agg.loss.mean < agg.original_loss.mean,
            "more data must help: {} -> {}",
            agg.original_loss.mean,
            agg.loss.mean
        );
    }
}
