//! Per-layer numbers for the traced run: the benchmark's own calls into
//! each workspace crate's public functions, at the shapes of the
//! workload's first input.

use crate::util::{median, ms_since, time_median, Rng, Sheet};
use slice_tuner::checkpoint;
use slice_tuner::metrics::EvalReport;
use slice_tuner::{EstimationMode, PoolSource, SliceTuner, TunerConfig};
use st_curve::PowerLaw;
use st_data::{DatasetFamily, SlicedDataset};
use st_models::ModelSpec;
use st_server::{Client, ServerConfig, Session, SessionSpec};
use std::hint::black_box;
use std::time::Instant;

/// Rounds each probed session is advanced through (`max_rounds`).
pub const SESSION_ROUNDS: u64 = 5;

/// The model `slice-tuner-cli tune` and `st_server` pick for a family.
pub fn model_for(family: &DatasetFamily) -> ModelSpec {
    if family.num_classes == 2 {
        ModelSpec::softmax()
    } else {
        ModelSpec::basic()
    }
}

/// The configuration `slice-tuner-cli tune` builds with its default flags.
pub fn cli_config(family: &DatasetFamily, seed: u64) -> TunerConfig {
    TunerConfig::new(model_for(family))
        .with_seed(seed)
        .with_lambda(1.0)
        .with_mode(EstimationMode::Amortized)
        .with_max_retries(2)
        .with_max_drift_resets(3)
}

/// The register body of a session over the given inputs.
pub fn session_body(
    family: &str,
    seed: u64,
    budget: f64,
    sizes: &[usize],
    validation: usize,
) -> String {
    let sizes: Vec<String> = sizes.iter().map(|s| s.to_string()).collect();
    format!(
        "{{\"family\":\"{family}\",\"seed\":{seed},\"budget\":{},\"sizes\":[{}],\
         \"validation\":{validation},\"max_rounds\":{SESSION_ROUNDS}}}",
        budget as u64,
        sizes.join(",")
    )
}

pub struct LayerInputs {
    pub family: DatasetFamily,
    pub model: ModelSpec,
    /// Starting slice sizes: the data and server probes use these.
    pub sizes: Vec<usize>,
    /// Slice sizes halfway through the input's run (starting sizes plus
    /// half of what it acquired): the GEMM, training, estimation and
    /// solve probes use these, the average shape those steps see.
    pub midway: Vec<usize>,
    pub validation: usize,
    pub seed: u64,
    pub budget: f64,
    /// Repetitions of each timing (the median is reported).
    pub reps: usize,
}

/// Per-call times of one tuning step, at one shape.
pub struct Steps {
    pub train_ms: f64,
    pub eval_ms: f64,
    pub estimate_ms: f64,
    pub estimate_trainings: f64,
    pub fit_ms: f64,
    pub fit_failures: usize,
    pub solve_ms: f64,
}

/// Times a training, an evaluation, a curve estimation with its fits and
/// an allocation solve on a dataset of the given slice sizes, configured
/// as `slice-tuner-cli tune` configures them.
pub fn step_times(inp: &LayerInputs, sizes: &[usize]) -> Steps {
    let fam = &inp.family;
    let reps = inp.reps;
    let generate = || SlicedDataset::generate(fam, sizes, inp.validation, inp.seed);
    let ds = generate();
    let m = ds.matrices();
    let cfg = cli_config(fam, inp.seed);
    let train_cfg = cfg.train.with_seed(inp.seed);
    let train = || {
        st_models::train(
            &m.train_x,
            &m.train_y,
            fam.feature_dim,
            fam.num_classes,
            &inp.model,
            &train_cfg,
        )
    };
    let train_ms = time_median(reps, || {
        black_box(train());
    });
    let model = train();
    let eval_ms = time_median(reps, || {
        black_box(EvalReport::evaluate(&model, &ds));
    });

    let mut pool = PoolSource::new(fam.clone(), inp.seed);
    let tuner = SliceTuner::new(generate(), &mut pool, cfg);
    let mut estimates = Vec::new();
    let estimate_ms = time_median(reps, || estimates = tuner.estimate_curves_detailed(1));
    let estimate_trainings = tuner.trainings() as f64 / reps.max(1) as f64;
    let fit_ms: Vec<f64> = estimates
        .iter()
        .map(|e| {
            time_median(reps, || {
                let _ = black_box(st_curve::fit_power_law(&e.points));
            })
        })
        .collect();
    let curves: Vec<PowerLaw> = estimates
        .iter()
        .map(|e| e.fit.clone().unwrap_or(PowerLaw::new(1.0, 0.3)))
        .collect();
    let solve_ms = time_median(reps, || {
        black_box(tuner.one_shot_allocation(&curves, inp.budget));
    });
    Steps {
        train_ms,
        eval_ms,
        estimate_ms,
        estimate_trainings,
        fit_ms: median(&fit_ms),
        fit_failures: estimates.iter().filter(|e| e.fit.is_err()).count(),
        solve_ms,
    }
}

/// What the server probe measured, for `trace.accounted_share`.
pub struct ServerTimes {
    /// In-process `Session::advance` time per round index.
    pub advance_ms: Vec<f64>,
    /// In-process status, curves and allocation reads.
    pub read_ms: f64,
    /// HTTP status read minus its in-process cost.
    pub http_overhead_ms: f64,
}

/// Reports every per-layer metric that probes measure.
pub fn probe(inp: &LayerInputs, work: &str, sheet: &mut Sheet) -> Option<ServerTimes> {
    let fam = &inp.family;
    let reps = inp.reps;
    let generate = || SlicedDataset::generate(fam, &inp.sizes, inp.validation, inp.seed);

    // st_data: generation and the first dense snapshot.
    sheet.metric(
        "data.generate_ms",
        time_median(reps, || {
            black_box(generate());
        }),
        "ms",
    );
    let snapshot: Vec<f64> = (0..reps)
        .map(|_| {
            let ds = generate();
            let t = Instant::now();
            black_box(ds.matrices());
            ms_since(t)
        })
        .collect();
    sheet.metric("data.snapshot_ms", median(&snapshot), "ms");
    sheet.metric(
        "data.train_rows",
        inp.sizes.iter().sum::<usize>() as f64,
        "count",
    );

    // st_linalg: the active kernel's GEMM at the model's layer shapes,
    // with the midway training rows as the batch.
    let rows: usize = inp.midway.iter().sum();
    let mut dims = vec![fam.feature_dim];
    dims.extend(&inp.model.hidden);
    dims.push(fam.num_classes);
    let mut rng = Rng::new(inp.seed);
    let mut fill = |len: usize| -> Vec<f64> {
        (0..len)
            .map(|_| (rng.next_u64() % 1000) as f64 / 500.0 - 1.0)
            .collect()
    };
    let (mut flops, mut secs) = (0.0, 0.0);
    for w in dims.windows(2) {
        let (m, k, n) = (rows, w[0], w[1]);
        let (a, b) = (fill(m * k), fill(k * n));
        let mut out = vec![0.0; m * n];
        let per_call = 2.0 * (m * k * n) as f64;
        let inner = (4.0e6 / per_call).ceil() as usize;
        let ms = time_median(reps, || {
            for _ in 0..inner {
                st_linalg::kernel().gemm(m, k, n, &a, &b, &mut out);
            }
        });
        flops += per_call * inner as f64;
        secs += ms / 1e3;
    }
    sheet.metric("linalg.gemm_gflops", flops / secs / 1e9, "GFLOP/s");
    let mults: usize = dims.windows(2).map(|w| w[0] * w[1]).sum();
    let epochs = cli_config(fam, inp.seed).train.epochs;
    sheet.metric(
        "linalg.flops_per_training",
        6.0 * (mults * rows * epochs) as f64,
        "flop",
    );

    // st_models, st_curve and st_optim (through the tuner's allocation
    // solve) at the midway shape.
    let steps = step_times(inp, &inp.midway);
    sheet.metric("models.train_ms", steps.train_ms, "ms");
    sheet.metric("models.eval_ms", steps.eval_ms, "ms");
    sheet.metric("curve.estimate_ms", steps.estimate_ms, "ms");
    sheet.metric(
        "curve.estimate_trainings",
        steps.estimate_trainings,
        "count",
    );
    sheet.metric("curve.fit_ms", steps.fit_ms, "ms");
    sheet.metric("curve.fit_failures", steps.fit_failures as f64, "count");
    sheet.metric("optim.solve_ms", steps.solve_ms, "ms");

    probe_server(inp, work, sheet)
}

/// st_server and the checkpoint layer: a session over the same inputs,
/// in process and over HTTP.
fn probe_server(inp: &LayerInputs, work: &str, sheet: &mut Sheet) -> Option<ServerTimes> {
    let reps = inp.reps.max(10);
    let body = session_body(
        &inp.family.name,
        inp.seed,
        inp.budget,
        &inp.sizes,
        inp.validation,
    );
    let dir = format!("{work}/probe-session");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        sheet.fail(format!("creating {dir}: {e}"));
    }
    let session = SessionSpec::parse(&body).and_then(|spec| Session::new(0, spec, &dir));
    let Ok(mut session) = session else {
        sheet.fail(format!("probe session {body}: {:?}", session.err()));
        return None;
    };
    let mut advance = Vec::new();
    for round in 1..=SESSION_ROUNDS {
        let t = Instant::now();
        let outcome = session.advance(round, 1, 1);
        advance.push(ms_since(t));
        sheet.check(outcome.is_ok(), || {
            format!("probe session round {round}: {outcome:?}")
        });
    }
    for (r, ms) in advance.iter().enumerate() {
        sheet.metric(format!("server.session_advance_ms.r{}", r + 1), *ms, "ms");
    }
    sheet.metric(
        "server.session_advance_ms",
        crate::util::mean(&advance),
        "ms",
    );
    let Some(cp) = session.load_checkpoint().ok().flatten() else {
        sheet.fail("the probe session left no checkpoint");
        return None;
    };
    // Advance r replays the pre-pass and rounds 1..r-1 before it runs.
    let mut replayed: usize = cp.pre_pass.iter().sum();
    for r in 1..=SESSION_ROUNDS as usize {
        sheet.metric(
            format!("server.replayed_rows.r{r}"),
            replayed as f64,
            "count",
        );
        replayed += cp.rounds.get(r - 1).map_or(0, |c| c.iter().sum());
    }
    let copy = format!("{dir}/copy.json");
    sheet.check(session.curves().is_ok(), || {
        "probe session has no curves".to_string()
    });
    sheet.check(session.allocation().is_ok(), || {
        "probe session has no allocation".to_string()
    });
    sheet.check(checkpoint::save(&copy, &cp).is_ok(), || {
        format!("saving {copy}")
    });
    sheet.check(
        matches!(checkpoint::load(&copy), Ok(Some(ref back)) if back.to_json() == cp.to_json()),
        || "a saved checkpoint does not load back unchanged".to_string(),
    );
    let status_ms = time_median(reps, || {
        black_box(session.state_json(false));
    });
    let curves_ms = time_median(reps, || {
        let _ = black_box(session.curves());
    });
    let allocation_ms = time_median(reps, || {
        let _ = black_box(session.allocation());
    });
    sheet.metric("server.session_curves_ms", curves_ms, "ms");
    sheet.metric("server.session_allocation_ms", allocation_ms, "ms");
    let load_ms = time_median(reps, || {
        let _ = black_box(checkpoint::load(&session.checkpoint_path));
    });
    let save_ms = time_median(reps, || {
        let _ = black_box(checkpoint::save(&copy, &cp));
    });
    sheet.metric("core.checkpoint_load_ms", load_ms, "ms");
    sheet.metric("core.checkpoint_save_ms", save_ms, "ms");
    let bytes = std::fs::metadata(&session.checkpoint_path).map_or(0, |m| m.len());
    sheet.metric("core.checkpoint_bytes", bytes as f64, "bytes");

    // Over HTTP: transport alone, and a status read against its
    // in-process cost.
    let http_dir = format!("{work}/probe-http");
    let _ = std::fs::remove_dir_all(&http_dir);
    let handle = match st_server::start(ServerConfig::new(&http_dir)) {
        Ok(h) => h,
        Err(e) => {
            sheet.fail(format!("starting the probe server: {e}"));
            return None;
        }
    };
    let client = Client::new(handle.addr());
    let mut ok = |method: &str, path: &str, body: &str| -> f64 {
        let t = Instant::now();
        let resp = client.request(method, path, body);
        let ms = ms_since(t);
        let good = matches!(&resp, Ok(r) if (200..300).contains(&r.status));
        sheet.check(good, || format!("probe {method} {path}: {resp:?}"));
        ms
    };
    ok("POST", "/sessions", &body);
    for round in 1..=SESSION_ROUNDS {
        ok(
            "POST",
            "/sessions/0/advance",
            &format!("{{\"to_round\":{round}}}"),
        );
    }
    let healthz: Vec<f64> = (0..reps).map(|_| ok("GET", "/healthz", "")).collect();
    let status: Vec<f64> = (0..reps).map(|_| ok("GET", "/sessions/0", "")).collect();
    let stats = client.request("GET", "/stats", "");
    handle.shutdown();
    handle.wait();
    let healthz_ms = median(&healthz);
    let overhead = median(&status) - status_ms;
    sheet.metric("server.http_healthz_ms", healthz_ms, "ms");
    sheet.metric("server.http_overhead_ms", overhead, "ms");
    match stats.ok().and_then(|r| serde::json::parse(&r.body).ok()) {
        Some(v) => {
            for key in ["sessions", "queued", "requests"] {
                let n = v
                    .get(key)
                    .and_then(|x| x.as_u64())
                    .map_or(f64::NAN, |n| n as f64);
                sheet.metric(format!("server.stats.{key}"), n, "count");
            }
        }
        None => sheet.fail("GET /stats gave no JSON".to_string()),
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&http_dir);
    Some(ServerTimes {
        advance_ms: advance,
        read_ms: status_ms + curves_ms + allocation_ms,
        http_overhead_ms: overhead,
    })
}
