//! The `serve-mixed` workload: an in-process `st_server` on loopback,
//! driven as a closed loop by two clients. Each client registers a census
//! session, advances it round by round to `max_rounds`, sends a fixed mix
//! of reads after every advance, and starts the next session.

use crate::clock::Clocked;
use crate::layers::{self, model_for, session_body, LayerInputs, SESSION_ROUNDS};
use crate::util::{mean, median, ms_since, p90, peak_rss_mb, Rng, Sheet};
use slice_tuner::{EstimationMode, PoolSource, SliceTuner, Strategy, TSchedule, TunerConfig};
use st_data::{families, DatasetFamily, SlicedDataset};
use st_server::{Client, ServerConfig, Session, SessionSpec};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Distinct session inputs per seed; sessions cycle through them.
const INPUTS: usize = 32;
/// Starting slice sizes, assigned to the slices in a seed-drawn order.
const SIZES: [usize; 4] = [40, 90, 160, 260];
const VALIDATION: usize = 300;
const BUDGET: f64 = 6000.0;
const READS: [&str; 3] = ["", "/curves", "/allocation"];
/// Sessions admitted per server: `ServerConfig`'s default of 64 would
/// refuse a closed loop that never deletes sessions after a few seconds.
const MAX_SESSIONS: usize = 100_000;

/// The register body of input `k` of `seed`.
fn body(seed: u64, k: usize) -> String {
    let mut rng = Rng::new(seed.wrapping_mul(0x5E55_1047) ^ k as u64);
    let session_seed = rng.next_u64() >> 16;
    let sizes = rng.shuffled(&SIZES);
    session_body("census", session_seed, BUDGET, &sizes, VALIDATION)
}

/// What one load phase measured.
#[derive(Default)]
struct Load {
    /// `(session id, input index, lifetime ms)`.
    sessions: Vec<(u64, usize, f64)>,
    advance_ms: Vec<f64>,
    read_ms: Vec<f64>,
    requests: u64,
    failures: Vec<String>,
    elapsed_s: f64,
    resends: u64,
    stats: String,
}

/// Runs the closed loop until `limit` passes (but at least one session
/// per input), or for exactly `count` sessions when given.
fn load(
    seed: u64,
    dir: &str,
    limit: Duration,
    count: Option<usize>,
    poll_stats: bool,
) -> Result<Load, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = ServerConfig::new(dir);
    cfg.max_sessions = MAX_SESSIONS;
    let handle = st_server::start(cfg)?;
    let addr = handle.addr();
    let sends = Arc::new(AtomicU64::new(0));
    let next = Arc::new(AtomicUsize::new(0));
    let out = Arc::new(Mutex::new(Load::default()));
    let t0 = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (sends, next, out) = (Arc::clone(&sends), Arc::clone(&next), Arc::clone(&out));
            std::thread::spawn(move || {
                let client = Client::new(addr).with_counter(sends);
                let mut local = Load::default();
                loop {
                    let ordinal = next.fetch_add(1, Ordering::SeqCst);
                    let done = match count {
                        Some(c) => ordinal >= c,
                        None => ordinal >= INPUTS && t0.elapsed() >= limit,
                    };
                    if done {
                        break;
                    }
                    session(&client, seed, ordinal % INPUTS, poll_stats, &mut local);
                }
                let mut all = out.lock().unwrap_or_else(|e| e.into_inner());
                all.sessions.extend(local.sessions);
                all.advance_ms.extend(local.advance_ms);
                all.read_ms.extend(local.read_ms);
                all.requests += local.requests;
                all.failures.extend(local.failures);
            })
        })
        .collect();
    for t in threads {
        t.join().map_err(|_| "client thread panicked".to_string())?;
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let client = Client::new(addr);
    let stats = client
        .request("GET", "/stats", "")
        .map(|r| r.body)
        .unwrap_or_default();
    handle.shutdown();
    handle.wait();
    let mut all = std::mem::take(&mut *out.lock().unwrap_or_else(|e| e.into_inner()));
    all.elapsed_s = elapsed_s;
    all.resends = sends.load(Ordering::SeqCst).saturating_sub(all.requests);
    all.stats = stats;
    Ok(all)
}

/// One session: register, then advance to `max_rounds`, reading after
/// every advance.
fn session(client: &Client, seed: u64, k: usize, poll_stats: bool, out: &mut Load) {
    let t0 = Instant::now();
    let send = |method: &str, path: &str, body: &str, out: &mut Load| -> Option<(String, f64)> {
        let t = Instant::now();
        let resp = client.request(method, path, body);
        let ms = ms_since(t);
        out.requests += 1;
        match resp {
            Ok(r) if (200..300).contains(&r.status) => Some((r.body, ms)),
            Ok(r) => {
                out.failures
                    .push(format!("{method} {path}: status {} {}", r.status, r.body));
                None
            }
            Err(e) => {
                out.failures.push(format!("{method} {path}: {e}"));
                None
            }
        }
    };
    let Some((reg, _)) = send("POST", "/sessions", &body(seed, k), out) else {
        return;
    };
    let Some(id) = serde::json::parse(&reg)
        .ok()
        .and_then(|v| v.get("id").and_then(|x| x.as_u64()))
    else {
        out.failures
            .push(format!("register answered without an id: {reg}"));
        return;
    };
    for round in 1..=SESSION_ROUNDS {
        let path = format!("/sessions/{id}/advance");
        match send("POST", &path, &format!("{{\"to_round\":{round}}}"), out) {
            Some((_, ms)) => out.advance_ms.push(ms),
            None => return,
        }
        for tail in READS {
            if let Some((_, ms)) = send("GET", &format!("/sessions/{id}{tail}"), "", out) {
                out.read_ms.push(ms);
            }
        }
    }
    if poll_stats {
        send("GET", "/stats", "", out);
    }
    out.sessions.push((id, k, ms_since(t0)));
}

/// `Session`'s tuner configuration, for the in-process runs that give
/// each input's final model quality and per-layer counts. Its checkpoint
/// must equal the served one byte for byte, which holds only if this
/// configuration matches the server's.
fn session_config(family: &DatasetFamily, spec: &SessionSpec, checkpoint: &str) -> TunerConfig {
    let mut cfg = TunerConfig::new(model_for(family))
        .with_seed(spec.seed)
        .with_mode(EstimationMode::Exhaustive)
        .with_incremental()
        .with_checkpoint(checkpoint)
        .with_resume()
        .with_halt_after_rounds(spec.max_rounds as usize);
    cfg.train.epochs = spec.epochs;
    cfg.fractions = vec![0.4, 0.7, 1.0];
    cfg.repeats = spec.repeats;
    cfg.threads = 1;
    cfg.max_iterations = spec.max_rounds as usize;
    cfg
}

/// Per input: the reference checkpoint (`Session::advance` round by
/// round), and one uninterrupted in-process run of the same session.
struct Reference {
    checkpoint: String,
    /// Rows acquired per slice.
    acquired: Vec<usize>,
    loss: f64,
    avg_eer: f64,
    trainings: usize,
    rounds: usize,
    solves: usize,
    acquire_calls: usize,
    acquire_ms: f64,
}

fn references(seed: u64, work: &str, sheet: &mut Sheet) -> Vec<Reference> {
    let family = families::census();
    let dir = format!("{work}/reference");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::create_dir_all(&dir);
    let mut refs = Vec::new();
    for k in 0..INPUTS {
        let spec = SessionSpec::parse(&body(seed, k)).expect("session spec");
        let mut s = Session::new(k as u64, spec.clone(), &dir).expect("reference session");
        for round in 1..=SESSION_ROUNDS {
            let outcome = s.advance(round, 1, 1);
            sheet.check(outcome.is_ok(), || {
                format!("reference {k} round {round}: {outcome:?}")
            });
        }
        let checkpoint = std::fs::read_to_string(&s.checkpoint_path).unwrap_or_default();

        let path = format!("{dir}/direct-{k}.json");
        let ds = SlicedDataset::generate(&family, &spec.sizes, spec.validation, spec.seed);
        let mut source = Clocked::new(PoolSource::new(family.clone(), spec.seed), 4, true);
        let outcome = SliceTuner::new(ds, &mut source, session_config(&family, &spec, &path))
            .try_run(
                Strategy::Iterative(TSchedule::moderate()),
                spec.budget as f64,
            );
        let direct = std::fs::read_to_string(&path).unwrap_or_default();
        sheet.check(outcome.is_ok() && direct == checkpoint, || {
            format!("input {k}: an uninterrupted run does not reproduce the served checkpoint")
        });
        let (loss, avg_eer, trainings, rounds) = match &outcome {
            Ok(r) => (
                r.report.overall_loss,
                r.report.avg_eer,
                r.trainings,
                r.iterations,
            ),
            Err(_) => (f64::NAN, f64::NAN, 0, 0),
        };
        refs.push(Reference {
            checkpoint,
            acquired: source.rows.clone(),
            loss,
            avg_eer,
            trainings,
            rounds,
            solves: source.solves(),
            acquire_calls: source.acquire_calls,
            acquire_ms: source.acquire_ms,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    refs
}

/// Counts the load's failures and checks every served session's final
/// checkpoint against its input's reference.
fn check(load: &Load, dir: &str, refs: &[Reference], sheet: &mut Sheet) {
    sheet.attempted += load.requests;
    for f in &load.failures {
        sheet.fail(f.clone());
    }
    for _ in 0..load.resends {
        sheet.fail("client re-sent a request".to_string());
    }
    for &(id, k, _) in &load.sessions {
        let served =
            std::fs::read_to_string(format!("{dir}/session-{id}.json")).unwrap_or_default();
        sheet.check(served == refs[k].checkpoint, || {
            format!("session {id}: final checkpoint differs from input {k}'s reference")
        });
    }
}

/// Set-up: start a server, wait until `/healthz` answers, drain it.
/// Repeated five times; the median is reported.
fn setup_s(work: &str) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|i| {
            let dir = format!("{work}/setup-{i}");
            let t = Instant::now();
            let handle = st_server::start(ServerConfig::new(&dir)).expect("server start");
            let client = Client::new(handle.addr());
            let up = client
                .request("GET", "/healthz", "")
                .is_ok_and(|r| r.status == 200);
            handle.shutdown();
            handle.wait();
            let s = t.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&dir);
            if up {
                s
            } else {
                f64::NAN
            }
        })
        .collect();
    median(&samples)
}

pub fn run(seed: u64, seconds: u64, trace: bool, work: &str) -> Sheet {
    let mut sheet = Sheet::default();
    let dir = format!("{work}/sessions");
    if !trace {
        let setup = setup_s(work);
        let load = match load(seed, &dir, Duration::from_secs(seconds), None, false) {
            Ok(l) => l,
            Err(e) => {
                sheet.fail(e);
                return sheet;
            }
        };
        // The server's footprint under load, before the checks below run
        // their own in-process sessions.
        let rss = peak_rss_mb();
        let refs = references(seed, work, &mut sheet);
        check(&load, &dir, &refs, &mut sheet);
        let _ = std::fs::remove_dir_all(&dir);
        let lifetimes: Vec<f64> = load.sessions.iter().map(|s| s.2).collect();
        sheet.note(format!(
            "{} sessions, {} advances, {} reads, {} requests in {:.1} s ({:.2} requests/s)",
            load.sessions.len(),
            load.advance_ms.len(),
            load.read_ms.len(),
            load.requests,
            load.elapsed_s,
            load.requests as f64 / load.elapsed_s
        ));
        sheet.note(format!("read_ms_p50 {:.3} ms", median(&load.read_ms)));
        for (name, v) in [
            ("advance_ms_p90", &load.advance_ms),
            ("read_ms_p90", &load.read_ms),
        ] {
            if let Some(p) = p90(v) {
                sheet.note(format!("{name} {p:.3} ms"));
            }
        }
        sheet.note(format!("GET /stats after the load: {}", load.stats));
        sheet.metric("setup_s", setup, "s");
        sheet.metric("run_ms_p50", median(&lifetimes), "ms");
        sheet.metric("round_ms_p50", median(&load.advance_ms), "ms");
        sheet.metric(
            "loss",
            mean(&refs.iter().map(|r| r.loss).collect::<Vec<_>>()),
            "nats",
        );
        sheet.metric(
            "avg_eer",
            mean(&refs.iter().map(|r| r.avg_eer).collect::<Vec<_>>()),
            "nats",
        );
        sheet.metric("peak_rss_mb", rss, "MB");
        return sheet;
    }

    // Traced: the load untraced, the same number of sessions again with
    // `/stats` polled after each, then the layer probes.
    let limit = Duration::from_secs_f64(seconds as f64 * 0.3);
    let plain = load(seed, &dir, limit, None, false);
    let refs = references(seed, work, &mut sheet);
    let plain = match plain {
        Ok(l) => l,
        Err(e) => {
            sheet.fail(e);
            return sheet;
        }
    };
    check(&plain, &dir, &refs, &mut sheet);
    let traced = match load(seed, &dir, limit, Some(plain.sessions.len()), true) {
        Ok(l) => l,
        Err(e) => {
            sheet.fail(e);
            return sheet;
        }
    };
    check(&traced, &dir, &refs, &mut sheet);
    let _ = std::fs::remove_dir_all(&dir);

    let spec = SessionSpec::parse(&body(seed, 0)).expect("session spec");
    let family = families::census();
    let midway = spec
        .sizes
        .iter()
        .zip(&refs[0].acquired)
        .map(|(s, a)| s + a / 2)
        .collect();
    let inputs = LayerInputs {
        model: model_for(&family),
        family,
        sizes: spec.sizes.clone(),
        midway,
        validation: spec.validation,
        seed: spec.seed,
        budget: spec.budget as f64,
        reps: 15,
    };
    let Some(probe) = layers::probe(&inputs, work, &mut sheet) else {
        return sheet;
    };
    let per_ref = |f: &dyn Fn(&Reference) -> f64| mean(&refs.iter().map(f).collect::<Vec<_>>());
    let calls: f64 = refs.iter().map(|r| r.acquire_calls as f64).sum();
    sheet.metric(
        "models.trainings",
        per_ref(&|r| r.trainings as f64),
        "count",
    );
    sheet.metric("optim.solves", per_ref(&|r| r.solves as f64), "count");
    sheet.metric("core.rounds", per_ref(&|r| r.rounds as f64), "count");
    sheet.metric(
        "core.acquire_calls",
        per_ref(&|r| r.acquire_calls as f64),
        "count",
    );
    sheet.metric(
        "core.acquire_rows",
        per_ref(&|r| r.acquired.iter().sum::<usize>() as f64),
        "count",
    );
    sheet.metric(
        "core.acquire_ms",
        refs.iter().map(|r| r.acquire_ms).sum::<f64>() / calls.max(1.0),
        "ms",
    );

    // Σ count × per-call time for one session of input 0, against the
    // median lifetime of input 0's untraced sessions: the advances, the
    // reads after each, and the transport of every request.
    let own = median(
        &plain
            .sessions
            .iter()
            .filter(|s| s.1 == 0)
            .map(|s| s.2)
            .collect::<Vec<_>>(),
    );
    let rounds = SESSION_ROUNDS as f64;
    let requests = 1.0 + rounds * (1.0 + READS.len() as f64);
    let accounted = probe.advance_ms.iter().sum::<f64>()
        + rounds * probe.read_ms
        + requests * probe.http_overhead_ms;
    sheet.metric("trace.accounted_share", accounted / own, "ratio");
    sheet.metric(
        "trace.overhead",
        traced.elapsed_s / plain.elapsed_s,
        "ratio",
    );
    sheet.note(format!(
        "traced run: {} sessions untraced in {:.1} s, traced in {:.1} s; input 0's sessions took {own:.3} ms, its steps account for {accounted:.3} ms",
        plain.sessions.len(),
        plain.elapsed_s,
        traced.elapsed_s
    ));
    sheet
}
