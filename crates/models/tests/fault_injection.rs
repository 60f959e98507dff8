//! The `nan_loss` fault plan is process-wide: while it is installed and
//! armed, every training step in the process sees a poisoned feature. It
//! therefore runs in a test binary of its own, apart from the unit tests
//! that expect training to succeed.

use st_data::seeded_rng;
use st_linalg::Matrix;
use st_models::{try_train_on_rows, ModelSpec, TrainConfig, TrainError};

/// Two Gaussian blobs in the plane, `n_per` points each.
fn blobs(n_per: usize, seed: u64) -> (Matrix, Vec<usize>) {
    let mut rng = seeded_rng(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for (label, cx) in [-2.0, 2.0].into_iter().enumerate() {
        for _ in 0..n_per {
            rows.push(cx + 0.3 * st_data::normal(&mut rng));
            rows.push(0.3 * st_data::normal(&mut rng));
            labels.push(label);
        }
    }
    (Matrix::from_vec(labels.len(), 2, rows), labels)
}

#[test]
fn injected_nan_loss_fails_training_on_every_attempt() {
    let (x, y) = blobs(20, 10);
    let rows: Vec<usize> = (0..x.rows()).collect();
    let train = || {
        try_train_on_rows(
            &x,
            &y,
            &rows,
            2,
            2,
            &ModelSpec::softmax(),
            &TrainConfig::default(),
        )
    };
    st_linalg::fault::install(Some(
        st_linalg::fault::parse_plan("nan_loss@slice1:round2").unwrap(),
    ));
    {
        let _armed = st_linalg::fault::arm_nan_loss(Some(1), 2);
        for _attempt in 0..2 {
            let err = train().expect_err("armed injection must poison training");
            assert!(matches!(err, TrainError::NonFiniteLoss { epoch: 0 }));
        }
    }
    // Scope dropped: the same call trains clean.
    assert!(train().is_ok());
    st_linalg::fault::install(None);
}
