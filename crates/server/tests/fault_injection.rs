//! The `session_panic` fault plan is process-wide: while it is installed,
//! round 2 of session 3 panics in whatever test drives it. It therefore
//! runs in a test binary of its own, apart from the unit and integration
//! tests that advance sessions of their own.

use st_linalg::fault;
use st_server::{AdvanceError, Session, SessionSpec};

fn tmpdir(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("st_server_fault_injection_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tmpdir");
    dir.display().to_string()
}

fn census_spec() -> SessionSpec {
    SessionSpec::parse(
        r#"{"family":"census","seed":11,"budget":300,"sizes":[80,20,60,25],"validation":60}"#,
    )
    .expect("valid spec")
}

#[test]
fn injected_session_panic_degrades_then_resumes_bit_identically() {
    // Reference: uninterrupted advances to round 2.
    let dir = tmpdir("panic_ref");
    let mut reference = Session::new(3, census_spec(), &dir).expect("session");
    reference.advance(1, 1, 1).expect("round 1");
    reference.advance(2, 1, 1).expect("round 2");
    let want = std::fs::read_to_string(&reference.checkpoint_path).expect("ref checkpoint");

    // Faulted: the same session id/round is shot on its first attempt.
    fault::install(Some(
        fault::parse_plan("session_panic@3:round2").expect("plan"),
    ));
    let dir = tmpdir("panic_hit");
    let mut s = Session::new(3, census_spec(), &dir).expect("session");
    s.advance(1, 1, 1).expect("round 1 unaffected");
    let err = s.advance(2, 1, 1).expect_err("attempt 0 must panic");
    assert!(matches!(err, AdvanceError::Panicked(_)), "{err:?}");
    assert!(s.degraded, "panic marks the session degraded");
    assert_eq!(s.rounds, 1, "checkpoint untouched by the panic");
    // The retry resumes from the checkpoint and lands bit-identically.
    s.advance(2, 1, 1).expect("attempt 1 resumes");
    fault::install(None);
    assert_eq!(s.rounds, 2);
    let got = std::fs::read_to_string(&s.checkpoint_path).expect("checkpoint");
    assert_eq!(got, want, "resumed state must be bit-identical");
}
