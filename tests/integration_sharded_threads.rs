//! Integration: under the `sharded` kernel every dense product already fans
//! out over the kernel's threads, so the tuner keeps its estimator — the
//! batched plane's groups included — on the calling thread. The kernel is
//! fixed once per process, which is why this check has a test binary of its
//! own.

use slice_tuner::{PoolSource, SliceTuner, TunerConfig};
use st_data::{families, SlicedDataset};
use st_models::ModelSpec;

#[test]
fn sharded_kernel_pins_the_estimator_to_the_calling_thread() {
    st_linalg::set_kernel(st_linalg::KernelKind::Sharded)
        .expect("no other kernel is fixed in this test binary");
    let fam = families::census();
    let ds = SlicedDataset::generate(&fam, &[80, 40, 60, 20], 50, 18);
    let mut src = PoolSource::new(fam, 172);
    let mut cfg = TunerConfig::new(ModelSpec::softmax());
    cfg.train.epochs = 5;
    cfg.threads = 0;
    cfg.batched_plane = true;
    let tuner = SliceTuner::new(ds, &mut src, cfg);
    assert_eq!(tuner.config().threads, 1, "sharded owns the thread budget");
    let curves = tuner.estimate_curves(0);
    assert_eq!(curves.len(), 4);
    assert_eq!(
        tuner.trainings(),
        tuner.config().fractions.len() * tuner.config().repeats
    );
}
