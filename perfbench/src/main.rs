//! The repository benchmark: one workload per process.
//!
//! `safeloc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans PATH]`
//!
//! Every workload runs the whole SAFELOC loop on paper Building 1 —
//! federated sessions (phase A), the server side of a cross-process round
//! (phase B) and open-loop serving with hot swaps (phase C) — so that every
//! end-to-end metric is measured on every workload. The workloads differ in
//! which phase carries the load:
//!
//! * `paper-rounds`: phase A fills most of the run (6-phone SAFELOC rounds).
//! * `server-round-160`: phase B fills most of the run, at a cohort of 160.
//! * `serve-open-loop`: phase C fills most of the run; its round metrics
//!   come from server rounds at a cohort of 10.
//!
//! The untraced run (`--trace 0`) prints the end-to-end metrics; the traced
//! run (`--trace 1`) prints the per-layer metrics. The last stdout line is
//! the result object; the lines before it carry provenance and diagnostics.
//! `perfbench/METRICS.md` lists every metric and what it should move.

/// A JSON object of `key => value` pairs, each value rendered through
/// `serde::Serialize`, keys in the order written.
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::Json(serde::Value::Object(vec![
            $(($key.to_string(), serde::Serialize::serialize_value(&$value))),*
        ]))
    };
}

mod rounds;
mod server;
mod serving;
mod setup;
mod stats;
mod trace;

use safeloc_fl::Framework;
use setup::{classifier_view, Setup, ROUNDS_PER_SESSION};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// A `serde::Value` tree that nests inside other values and prints with
/// `serde_json::to_string`.
pub struct Json(pub serde::Value);

impl serde::Serialize for Json {
    fn serialize_value(&self) -> serde::Value {
        self.0.clone()
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&serde_json::to_string(self).map_err(|_| std::fmt::Error)?)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperRounds,
    ServerRound160,
    ServeOpenLoop,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "paper-rounds" => Some(Self::PaperRounds),
            "server-round-160" => Some(Self::ServerRound160),
            "serve-open-loop" => Some(Self::ServeOpenLoop),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::PaperRounds => "paper-rounds",
            Self::ServerRound160 => "server-round-160",
            Self::ServeOpenLoop => "serve-open-loop",
        }
    }

    /// How a run of `seconds` is spent.
    fn plan(self, seconds: f64) -> Plan {
        // The fixed-rate steps are the same on every workload: the 1k p50
        // spread over seeds by up to 0.25 of its median when it had only
        // 0.1 of the run.
        let serve = serving::Plan {
            slow_s: 0.25 * seconds,
            fast_s: 0.12 * seconds,
            rung_s: None,
        };
        match self {
            Self::PaperRounds => Plan {
                // The round p90 is a median over instances because in some
                // instances the attacker trains several-fold slower in late
                // rounds. Over ten seeds, six instances in two cycles spread
                // it by 0.17 of its median, twelve in one cycle by 0.11.
                instances: 12,
                cohort: 10,
                session_budget: 0.4 * seconds,
                min_sessions: 12 / SEGMENTS,
                server_budget: 0.0,
                min_server_rounds: 2,
                serve,
            },
            Self::ServerRound160 => Plan {
                instances: INSTANCES,
                cohort: 160,
                session_budget: 0.0,
                min_sessions: INSTANCES / SEGMENTS,
                server_budget: 0.5 * seconds,
                min_server_rounds: 5,
                serve,
            },
            Self::ServeOpenLoop => Plan {
                instances: INSTANCES,
                cohort: 10,
                session_budget: 0.0,
                min_sessions: INSTANCES / SEGMENTS,
                server_budget: 0.2 * seconds,
                min_server_rounds: 2,
                serve: serving::Plan {
                    rung_s: Some(0.02 * seconds),
                    ..serve
                },
            },
        }
    }
}

/// The phase sizes of one workload.
struct Plan {
    /// Scenario instances per set-up (see `Setup::instances`).
    instances: usize,
    /// Server-round cohort size.
    cohort: usize,
    session_budget: f64,
    /// SAFELOC sessions per segment, at least.
    min_sessions: usize,
    server_budget: f64,
    min_server_rounds: usize,
    serve: serving::Plan,
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Scenario instances per set-up where phase A is light: one cycle of
/// sessions gives the error metrics.
const INSTANCES: usize = 6;
/// Server rounds per window of the windowed round p90.
const ROUND_WINDOW: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds takes a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

fn provenance(args: &Args) -> Json {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let features: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter(|f| f.1)
    .map(|f| f.0)
    .collect();
    obj! {
        "workload" => args.workload.name(),
        "seed" => args.seed,
        "seconds" => args.seconds,
        "trace" => args.trace,
        "nproc" => std::thread::available_parallelism().map_or(1, |n| n.get()),
        "rayon_threads" => rayon::current_num_threads(),
        "target_cpu" => env("PERFBENCH_TARGET_CPU"),
        "target_features" => features.join(","),
        "rustc" => env("PERFBENCH_RUSTC"),
        "git_rev" => env("PERFBENCH_GIT_REV"),
        "source_sha256" => env("PERFBENCH_SOURCE_SHA256"),
    }
}

fn metric(value: f64, unit: &str) -> Json {
    obj! { "value" => value, "unit" => unit }
}

/// An object with one entry per `(name, value)` pair.
fn entries<T: serde::Serialize>(pairs: Vec<(&str, T)>) -> Json {
    Json(serde::Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.serialize_value()))
            .collect(),
    ))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result(correct: bool, attempted: usize, failed: usize, metrics: Vec<(&str, Json)>) -> Json {
    obj! {
        "correct" => correct,
        "attempted" => attempted,
        "failed" => failed,
        "metrics" => entries(metrics),
    }
}

/// Builds the set-up `SETUPS` times; returns the last one, each build's
/// seconds and whether all builds made the same inputs.
fn set_up(seed: u64, instances: usize, cohort: usize) -> (Setup, Vec<f64>, bool) {
    let mut seconds = Vec::with_capacity(SETUPS);
    let mut last: Option<Setup> = None;
    let mut same = true;
    for _ in 0..SETUPS {
        // Drop the previous build first so two never share memory.
        let previous = last.take().map(|s| s.digest);
        let start = Instant::now();
        let s = Setup::build(seed, instances, cohort);
        seconds.push(start.elapsed().as_secs_f64());
        same &= previous.is_none_or(|d| d == s.digest);
        last = Some(s);
    }
    (last.expect("SETUPS > 0"), seconds, same)
}

/// Hot-swap candidates: the classifiers of the first two instances'
/// pretrained templates, two different models of the same building.
fn candidates(setup: &Setup) -> Vec<safeloc_nn::Sequential> {
    setup.instances[..2]
        .iter()
        .map(|i| classifier_view(&setup.classifier, &i.template.global_params()))
        .collect()
}

/// Hot swaps arrive as often as SAFELOC rounds can produce new models:
/// one publish per median round time in `round_ms`.
fn swap_period(round_ms: &[f64]) -> Duration {
    Duration::from_secs_f64(stats::median(round_ms) / 1e3)
}

/// Each phase's budget is split over this many segments, run in turn, so a
/// host slowdown that lasts part of a run hits only some segments of every
/// phase. Serving figures are medians over the segments.
const SEGMENTS: usize = 3;

fn untraced(args: &Args, plan: &Plan) -> Result<(Json, Json), String> {
    let (setup, setup_s, same_setup) = set_up(args.seed, plan.instances, plan.cohort);
    let share = |seconds: f64| Duration::from_secs_f64(seconds / SEGMENTS as f64);
    let mut a = rounds::Phase::new(setup.instances.len());
    let mut b = server::Phase::new();
    let mut harness = None;
    let mut slow = Vec::with_capacity(SEGMENTS);
    let mut fast = Vec::with_capacity(SEGMENTS);
    for segment in 0..SEGMENTS {
        a.run(&setup, share(plan.session_budget), plan.min_sessions);
        // The service starts once the first SAFELOC rounds have set the
        // hot-swap cadence.
        let harness = harness.get_or_insert_with(|| {
            serving::Harness::start(&setup, candidates(&setup), swap_period(&a.all_round_ms()))
        });
        // Serving runs before the server rounds, not right after them:
        // in runs where it followed 160-update rounds, its latency was
        // sometimes several times its usual value.
        let salt = (segment as u64) << 8;
        let slow_s = plan.serve.slow_s / SEGMENTS as f64;
        let fast_s = plan.serve.fast_s / SEGMENTS as f64;
        slow.push(harness.step(serving::SLOW_RPS, slow_s, args.seed ^ 0x51 ^ salt, None));
        fast.push(harness.step(serving::FAST_RPS, fast_s, args.seed ^ 0xFA ^ salt, None));
        b.run(
            &setup,
            share(plan.server_budget),
            if segment == 0 {
                plan.min_server_rounds
            } else {
                0
            },
        )?;
    }
    a.finish_cycle(&setup);
    let mut harness = harness.expect("SEGMENTS > 0");
    let ladder = match plan.serve.rung_s {
        Some(rung_s) => serving::climb_ladder(&mut harness, rung_s, args.seed),
        None => Vec::new(),
    };
    let swap_period_ms = harness.swap_period().as_secs_f64() * 1e3;
    harness.shutdown();
    let segment_median = |steps: &[serving::Step], f: fn(&serving::Step) -> f64| -> f64 {
        stats::median(&steps.iter().map(f).collect::<Vec<_>>())
    };
    // p50 over every segment's requests together.
    let pooled = |steps: &[serving::Step], q: f64| -> f64 {
        let all: Vec<f64> = steps.iter().flat_map(|s| s.latency_ms.clone()).collect();
        stats::quantile(&all, q)
    };

    // Round time and defense weight come from SAFELOC rounds on
    // paper-rounds and from server rounds elsewhere (at cohort 10 on
    // serve-open-loop, where they are cheap enough to repeat often);
    // errors always come from the SAFELOC sessions.
    let (round_p50, round_p90, honest_share) = match args.workload {
        Workload::PaperRounds => (
            a.round_quantile(0.5),
            a.round_quantile(0.9),
            a.honest_share(),
        ),
        _ => (
            stats::quantile(&b.round_ms, 0.5),
            stats::median(&stats::window_quantiles(&b.round_ms, ROUND_WINDOW, 0.9)),
            b.honest_weight / b.total_weight,
        ),
    };
    let steps: Vec<&serving::Step> = slow.iter().chain(&fast).chain(&ladder).collect();
    let requests: usize = steps.iter().map(|s| s.requests).sum();
    let refused: usize = steps.iter().map(|s| s.refused).sum();
    let serve_correct = steps.iter().all(|s| s.correct);
    let correct = same_setup && a.consistent && b.consistent && serve_correct;
    let metrics = vec![
        ("setup_s", metric(stats::median(&setup_s), "s")),
        ("round_ms.p50", metric(round_p50, "ms")),
        ("round_ms.p90", metric(round_p90, "ms")),
        ("mean_error_m", metric(a.mean_error(), "m")),
        ("worst_error_m", metric(a.worst_error(), "m")),
        ("honest_weight_share", metric(honest_share, "share")),
        ("latency_ms.p50.1k", metric(pooled(&slow, 0.5), "ms")),
        ("latency_ms.p50.32k", metric(pooled(&fast, 0.5), "ms")),
        (
            "latency_ms.p99.32k",
            metric(segment_median(&fast, serving::Step::p99), "ms"),
        ),
    ];
    let to_json =
        |steps: &[serving::Step]| steps.iter().map(serving::Step::to_json).collect::<Vec<_>>();
    let details = obj! {
        "setup_s" => setup_s,
        "checks" => obj! {
            "setups_identical" => same_setup,
            "sessions_identical" => a.consistent,
            "server_rounds_identical" => b.consistent,
            "responses_match_offline" => serve_correct,
        },
        "sessions" => obj! {
            "sessions" => a.sessions,
            "round_ms" => stats::summary(&a.all_round_ms()),
            "pooled_p90_ms" => stats::quantile(&a.all_round_ms(), 0.9),
            "instance_p50_median_ms" => a.round_quantile(0.5),
            "instance_p90_median_ms" => a.round_quantile(0.9),
        },
        "server_rounds" => obj! {
            "cohort" => plan.cohort,
            "rounds" => b.round_ms.len(),
            "round_ms" => stats::summary(&b.round_ms),
            "p90_ms" => stats::quantile(&b.round_ms, 0.9),
        },
        "serving" => obj! {
            "swap_period_ms" => swap_period_ms,
            "slow" => to_json(&slow),
            "fast" => to_json(&fast),
            "pooled_p99_1k_ms" => pooled(&slow, 0.99),
            "p99_1k_ms" => segment_median(&slow, serving::Step::p99),
            "ladder" => to_json(&ladder),
            "max_rps" => serving::max_rps(&ladder),
        },
    };
    let attempted = a.sessions * ROUNDS_PER_SESSION + b.attempted + requests;
    Ok((
        details,
        result(correct, attempted, b.failed + refused, metrics),
    ))
}

fn traced(args: &Args, plan: &Plan) -> Result<(Json, Json), String> {
    let tracer = Tracer::new(Instant::now());
    let setup = Setup::build(args.seed, plan.instances, plan.cohort);
    let focus = args.workload;
    let a = rounds::traced(
        &setup,
        &tracer,
        if focus == Workload::PaperRounds { 2 } else { 1 },
    );
    let b = server::traced(
        &setup,
        &tracer,
        if focus == Workload::ServerRound160 {
            3
        } else {
            1
        },
    )?;
    let swaps = swap_period(&a.untraced_round_ms);
    let (slow, fast) = serving::traced(
        &setup,
        candidates(&setup),
        swaps,
        plan.serve,
        args.seed,
        &tracer,
    );
    let (telemetry, telemetry_correct) = match focus {
        Workload::PaperRounds => rounds::telemetry_pairs(setup.first(), ROUNDS_PER_SESSION),
        Workload::ServerRound160 => (server::telemetry_pairs(&setup, 2)?, true),
        Workload::ServeOpenLoop => serving::telemetry_pairs(
            &setup,
            candidates(&setup),
            swaps,
            plan.serve.fast_s / 2.0,
            args.seed,
            4,
        ),
    };
    if let Some(path) = &args.spans {
        trace::write_tsv(path, &tracer.archived())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let (slow_parts, fast_parts) = match (slow.parts, fast.parts) {
        (Some(s), Some(f)) => (s, f),
        _ => return Err("traced serving steps carry their parts".into()),
    };
    let (t_q1, t_q3) = stats::quartiles(&telemetry);
    let metrics = vec![
        ("core.fused.train_ms", metric(a.train_ms, "ms")),
        ("core.detector.denoise_ms", metric(a.denoise_ms, "ms")),
        ("fl.client.prepare_ms", metric(a.prepare_ms, "ms")),
        ("fl.fanout.idle_share", metric(a.idle_share, "share")),
        ("fl.defense.aggregate_ms", metric(a.aggregate_ms, "ms")),
        ("nn.train_rows", metric(a.train_rows, "count")),
        ("round.leftover_ms", metric(a.leftover_ms, "ms")),
        (
            "trace.overhead.round_ms",
            metric(
                stats::median(&a.traced_round_ms) - stats::median(&a.untraced_round_ms),
                "ms",
            ),
        ),
        ("wire.recv_ms", metric(b.recv_ms, "ms")),
        ("wire.rx_bytes", metric(b.rx_bytes, "bytes")),
        ("fl.delta.decode_ms", metric(b.decode_ms, "ms")),
        ("fl.defense.context_ms", metric(b.context_ms, "ms")),
        ("fl.defense.normclip_ms", metric(b.normclip_ms, "ms")),
        ("fl.defense.krum_ms", metric(b.krum_ms, "ms")),
        ("serve.registry.publish_ms", metric(b.publish_ms, "ms")),
        ("server.leftover_ms", metric(b.leftover_ms, "ms")),
        (
            "trace.overhead.server_ms",
            metric(
                stats::median(&b.traced_round_ms) - stats::median(&b.untraced_round_ms),
                "ms",
            ),
        ),
        ("serve.submit_us.1k", metric(slow_parts.submit_us, "us")),
        ("serve.submit_us.32k", metric(fast_parts.submit_us, "us")),
        ("serve.wait_ms.1k", metric(slow_parts.wait_ms, "ms")),
        ("serve.wait_ms.32k", metric(fast_parts.wait_ms, "ms")),
        (
            "serve.batch_size_mean.1k",
            metric(slow.batch_size_mean, "count"),
        ),
        (
            "serve.batch_size_mean.32k",
            metric(fast.batch_size_mean, "count"),
        ),
        ("loadgen.late_ms.1k", metric(slow_parts.late_ms, "ms")),
        ("loadgen.late_ms.32k", metric(fast_parts.late_ms, "ms")),
        (
            "telemetry.on_minus_off_ms",
            metric(stats::median(&telemetry), "ms"),
        ),
        ("telemetry.on_minus_off_iqr_ms", metric(t_q3 - t_q1, "ms")),
    ];
    let correct = a.equivalent && b.equivalent && slow.correct && fast.correct && telemetry_correct;
    let decomposition = |figure: f64, parts: Vec<(&str, f64)>, leftover: f64, samples: usize| {
        let sum: f64 = parts.iter().map(|p| p.1).sum::<f64>() + leftover;
        obj! {
            "figure_ms" => figure,
            "parts" => entries(parts),
            "leftover" => leftover,
            "parts_plus_leftover" => sum,
            "samples" => samples,
        }
    };
    let details = obj! {
        "checks" => obj! {
            "traced_round_equals_run_round" => a.equivalent,
            "staged_defense_equals_pipeline" => b.equivalent,
            "responses_match_offline" => slow.correct && fast.correct,
            "telemetry_variants_agree" => telemetry_correct,
        },
        "fanout_threads" => a.threads,
        "swap_period_ms" => swaps.as_secs_f64() * 1e3,
        "round_decomposition" => decomposition(
            stats::mean(&a.traced_round_ms),
            vec![
                ("core.fused.train_ms", a.train_ms),
                ("core.detector.denoise_ms", a.denoise_ms),
                ("fl.client.prepare_ms", a.prepare_ms),
                ("fl.defense.aggregate_ms", a.aggregate_ms),
            ],
            a.leftover_ms,
            a.rounds,
        ),
        "server_decomposition" => decomposition(
            stats::mean(&b.traced_round_ms),
            vec![
                ("wire.recv_ms", b.recv_ms),
                ("fl.delta.decode_ms", b.decode_ms),
                ("fl.defense.context_ms", b.context_ms),
                ("fl.defense.normclip_ms", b.normclip_ms),
                ("fl.defense.krum_ms", b.krum_ms),
                ("serve.registry.publish_ms", b.publish_ms),
            ],
            b.leftover_ms,
            b.rounds,
        ),
        "request_decomposition_32k" => decomposition(
            stats::mean(&fast.latency_ms),
            vec![
                ("loadgen.late_ms", fast_parts.late_ms),
                ("serve.submit_ms", fast_parts.submit_us / 1e3),
                ("serve.wait_ms", fast_parts.wait_ms),
            ],
            fast_parts.leftover_us / 1e3,
            fast.requests,
        ),
        "telemetry_on_minus_off_ms" => stats::summary(&telemetry),
    };
    let attempted = a.rounds * 2 + b.rounds * 2 + slow.requests + fast.requests;
    let failed = slow.refused + fast.refused;
    Ok((details, result(correct, attempted, failed, metrics)))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("safeloc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let plan = args.workload.plan(args.seconds);
    let outcome = if args.trace {
        traced(&args, &plan)
    } else {
        untraced(&args, &plan)
    };
    match outcome {
        Ok((details, result)) => {
            println!("{}", obj! { "provenance" => provenance(&args) });
            println!("{}", obj! { "details" => details });
            println!("{result}");
        }
        Err(e) => {
            eprintln!("safeloc-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn objects_nest_and_write_non_finite_as_null() {
        let v = obj! {
            "a" => 1.5,
            "b" => vec![1usize, 2],
            "c" => obj! { "d" => "x\"y", "e" => f64::NAN },
        };
        assert_eq!(
            v.to_string(),
            r#"{"a":1.5,"b":[1,2],"c":{"d":"x\"y","e":null}}"#
        );
    }
}
