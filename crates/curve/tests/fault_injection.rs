//! The `fit_diverge` fault plan is process-wide: while it is installed,
//! every fit in the process diverges. It therefore runs in a test binary of
//! its own, apart from the unit tests that expect fits to succeed.

use st_curve::{fit_power_law, CurvePoint, FitError};

#[test]
fn injected_divergence_is_typed_and_deterministic() {
    let pts: Vec<CurvePoint> = [10., 30., 60., 100.]
        .iter()
        .map(|&x: &f64| CurvePoint::size_weighted(x, 2.9 * x.powf(-0.21)))
        .collect();
    st_linalg::fault::install(Some(
        st_linalg::fault::parse_plan("fit_diverge@1.0").unwrap(),
    ));
    assert_eq!(fit_power_law(&pts), Err(FitError::Diverged));
    assert_eq!(fit_power_law(&pts), Err(FitError::Diverged), "reproducible");
    // Order-independent hash: shuffled points make the same decision.
    let mut rev = pts.clone();
    rev.reverse();
    assert_eq!(fit_power_law(&rev), Err(FitError::Diverged));
    st_linalg::fault::install(None);
    assert!(fit_power_law(&pts).is_ok());
}
