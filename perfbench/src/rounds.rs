//! Phase A: SAFELOC sessions on the paper fleet.
//!
//! The untraced path drives the public entry point users call,
//! `FlSession::next_round` over a clone of the pretrained template. The
//! traced path performs the same round step by step through each layer's
//! public functions (the body of `SafeLoc::collect_updates`, then the
//! saliency pipeline's `Aggregator::aggregate`) with a span around every
//! call, and must produce bitwise the same global model.

use crate::setup::{Instance, Setup, ROUNDS_PER_SESSION};
use crate::stats;
use crate::trace::{totals, Tracer};
use rayon::prelude::*;
use safeloc::SaliencyAggregator;
use safeloc_bench::harness::evaluate_errors;
use safeloc_fl::{
    active_clients, Aggregator, ClientOutcome, ClientUpdate, FlSession, Framework, LabelingMode,
    RoundPlan, RoundReport, UpdateDecision,
};
use safeloc_nn::{Adam, HasParams, NamedParams, TrainConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What one session produced.
pub struct Session {
    pub round_ms: Vec<f64>,
    /// The global model after every round.
    pub gms: Vec<NamedParams>,
    /// Localization errors of the final model on the five non-training
    /// phones' test sets, metres.
    pub errors: Vec<f32>,
    /// Aggregation weight given to honest / to all updates, summed over
    /// the session's rounds.
    pub honest_weight: f64,
    pub total_weight: f64,
}

impl Session {
    /// `true` when `other` produced bitwise the same models and errors.
    pub fn same_outcome(&self, other: &Session) -> bool {
        self.gms == other.gms
            && self.errors.len() == other.errors.len()
            && self
                .errors
                .iter()
                .zip(&other.errors)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.honest_weight.to_bits() == other.honest_weight.to_bits()
    }
}

/// One untraced session through `FlSession`.
pub fn session(instance: &Instance) -> Session {
    let mut session = FlSession::builder(instance.template.clone_box())
        .clients(instance.fleet.clone())
        .build();
    let mut out = Session {
        round_ms: Vec::with_capacity(ROUNDS_PER_SESSION),
        gms: Vec::with_capacity(ROUNDS_PER_SESSION),
        errors: Vec::new(),
        honest_weight: 0.0,
        total_weight: 0.0,
    };
    for _ in 0..ROUNDS_PER_SESSION {
        let start = Instant::now();
        let report = session.next_round();
        out.round_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let (honest, total) = report_weights(report);
        out.honest_weight += honest;
        out.total_weight += total;
        out.gms.push(session.framework().global_params());
    }
    let (framework, _, _) = session.into_parts();
    out.errors = evaluate_errors(framework.as_ref(), &instance.data);
    out
}

fn report_weights(report: &RoundReport) -> (f64, f64) {
    let mut honest = 0.0;
    let mut total = 0.0;
    for c in &report.clients {
        if let ClientOutcome::Trained { weight } = c.outcome {
            total += f64::from(weight);
            if !c.malicious {
                honest += f64::from(weight);
            }
        }
    }
    (honest, total)
}

/// The phase's untraced result.
pub struct Phase {
    pub sessions: usize,
    /// Round times of every session, per instance.
    pub round_ms: Vec<Vec<f64>>,
    /// The first session of every instance; later sessions must match it.
    pub first: Vec<Session>,
    pub consistent: bool,
}

impl Phase {
    /// The `q` quantile of each instance's round times, median over the
    /// instances: every instance is one deployment, and the median keeps
    /// an instance whose attacker trains several-fold slower from deciding
    /// the figure.
    pub fn round_quantile(&self, q: f64) -> f64 {
        let per_instance: Vec<f64> = self
            .round_ms
            .iter()
            .map(|r| stats::quantile(r, q))
            .collect();
        stats::median(&per_instance)
    }

    /// Every round time, pooled.
    pub fn all_round_ms(&self) -> Vec<f64> {
        self.round_ms.iter().flatten().copied().collect()
    }

    /// Mean localization error over every instance's evaluation samples.
    pub fn mean_error(&self) -> f64 {
        let all: Vec<f64> = self
            .first
            .iter()
            .flat_map(|s| s.errors.iter().map(|&e| f64::from(e)))
            .collect();
        stats::mean(&all)
    }

    /// Worst-case (largest) error of each instance, averaged.
    pub fn worst_error(&self) -> f64 {
        let worst: Vec<f64> = self
            .first
            .iter()
            .map(|s| {
                s.errors
                    .iter()
                    .map(|&e| f64::from(e))
                    .fold(f64::NAN, f64::max)
            })
            .collect();
        stats::mean(&worst)
    }

    /// Aggregation weight given to honest updates over all weight, pooled
    /// over every instance's rounds.
    pub fn honest_share(&self) -> f64 {
        let honest: f64 = self.first.iter().map(|s| s.honest_weight).sum();
        let total: f64 = self.first.iter().map(|s| s.total_weight).sum();
        honest / total
    }
}

impl Phase {
    /// An empty phase over `instances` instances.
    pub fn new(instances: usize) -> Self {
        Self {
            sessions: 0,
            round_ms: vec![Vec::new(); instances],
            first: Vec::with_capacity(instances),
            consistent: true,
        }
    }

    /// Runs sessions, visiting the instances in turn (continuing where the
    /// last call stopped), until `budget` has passed and at least
    /// `min_sessions` ran.
    pub fn run(&mut self, setup: &Setup, budget: Duration, min_sessions: usize) {
        let start = Instant::now();
        let mut ran = 0;
        while ran < min_sessions || start.elapsed() < budget {
            self.next_session(setup);
            ran += 1;
        }
    }

    /// Runs sessions until every instance ran equally often, so each
    /// instance's rounds are equally represented.
    pub fn finish_cycle(&mut self, setup: &Setup) {
        while !self.sessions.is_multiple_of(setup.instances.len()) {
            self.next_session(setup);
        }
    }

    fn next_session(&mut self, setup: &Setup) {
        let i = self.sessions % setup.instances.len();
        let next = session(&setup.instances[i]);
        self.round_ms[i].extend(&next.round_ms);
        match self.first.get(i) {
            Some(f) => self.consistent &= next.same_outcome(f),
            None => self.first.push(next),
        }
        self.sessions += 1;
    }
}

/// One traced session: the round decomposed into spans. Span names are
/// the per-layer metric names without their unit suffix. Adds the rows
/// the clients train on, times local epochs, to `train_rows`.
fn traced_session(
    instance: &Instance,
    tracer: &Tracer,
    trace_base: u64,
    train_rows: &AtomicUsize,
) -> Session {
    let cfg = instance.template.config().clone();
    let threshold = instance.template.effective_threshold();
    let mut net = instance.template.network().clone();
    let mut aggregator = SaliencyAggregator::new(cfg.aggregation).into_pipeline();
    let mut clients = instance.fleet.clone();
    let plan = RoundPlan::full(clients.len());
    let n_classes = net.n_classes();
    let mut out = Session {
        round_ms: Vec::with_capacity(ROUNDS_PER_SESSION),
        gms: Vec::with_capacity(ROUNDS_PER_SESSION),
        errors: Vec::new(),
        honest_weight: 0.0,
        total_weight: 0.0,
    };
    for round in 0..ROUNDS_PER_SESSION {
        let trace = trace_base + round as u64;
        let root = tracer.open("round", 0, trace);
        let root_id = root.id;
        // The salt SafeLoc derives from its own round counter.
        let round_salt = (round as u64 + 1) << 16;
        let gm = net.snapshot();
        let updates: Vec<ClientUpdate> = tracer.scope("fl.fanout", root_id, trace, |fan| {
            let net = &net;
            let cfg = &cfg;
            let gm = &gm;
            active_clients(&mut clients, &plan)
                .into_par_iter()
                .map(|c| {
                    tracer.scope("fl.client", fan, trace, |client| {
                        let x = tracer.scope("fl.client.prepare", client, trace, |_| {
                            let base = c.base_labels(net, &cfg.local);
                            c.round_rss(net, &base, n_classes)
                        });
                        let (den_x, _) =
                            tracer.scope("core.detector.denoise", client, trace, |_| {
                                net.denoise_matrix(&x, threshold, cfg.rce_mode)
                            });
                        let labels = tracer.scope("fl.client.prepare", client, trace, |_| {
                            let labels = match cfg.local.labeling {
                                LabelingMode::SelfTrain => net.predict(&den_x),
                                LabelingMode::Surveyed => c.local.labels.clone(),
                            };
                            c.round_labels(labels, n_classes)
                        });
                        // relaxed: a tally read after the fan-out joins.
                        train_rows.fetch_add(den_x.rows() * cfg.local.epochs, Ordering::Relaxed);
                        let lm = tracer.scope("core.fused.train", client, trace, |_| {
                            let mut lm = net.clone();
                            lm.fit_augmented(
                                &den_x,
                                &labels,
                                &mut Adam::new(cfg.local.learning_rate),
                                &TrainConfig::new(
                                    cfg.local.epochs,
                                    cfg.local.batch_size,
                                    c.seed ^ round_salt,
                                ),
                                cfg.detach_decoder,
                                cfg.recon_weight,
                                cfg.augment.as_ref(),
                            );
                            lm
                        });
                        let params = c.finalize_params(gm, lm.snapshot());
                        c.build_update(gm, params, den_x.rows())
                    })
                })
                .collect()
        });
        let outcome = tracer.scope("fl.defense.aggregate", root_id, trace, |_| {
            aggregator.aggregate(&gm, &updates)
        });
        net.load(&outcome.params)
            .expect("aggregation preserves the architecture");
        out.round_ms.push(tracer.close(root));
        for (u, d) in updates.iter().zip(&outcome.decisions) {
            if let UpdateDecision::Accepted { weight } = d {
                out.total_weight += f64::from(*weight);
                if !clients[u.client_id].is_malicious() {
                    out.honest_weight += f64::from(*weight);
                }
            }
        }
        out.gms.push(net.snapshot());
    }
    let mut errors = Vec::new();
    for (_, set) in instance.data.eval_sets() {
        let labels = net
            .predict_with_detection(&set.x, threshold, cfg.rce_mode)
            .labels;
        errors.extend(safeloc_metrics::localization_errors(
            &instance.data.building,
            &labels,
            &set.labels,
        ));
    }
    out.errors = errors;
    out
}

/// Per-layer figures of the traced run, per round.
pub struct Traced {
    pub rounds: usize,
    /// Bitwise equal to the untraced sessions, round by round.
    pub equivalent: bool,
    pub untraced_round_ms: Vec<f64>,
    pub traced_round_ms: Vec<f64>,
    /// Span self times as wall-clock shares of a round: work inside the
    /// client fan-out is divided by the thread count.
    pub train_ms: f64,
    pub denoise_ms: f64,
    pub prepare_ms: f64,
    pub aggregate_ms: f64,
    pub idle_share: f64,
    pub train_rows: f64,
    /// Mean traced round time minus the parts above.
    pub leftover_ms: f64,
    pub threads: usize,
}

/// Alternates `pairs` untraced and traced sessions, visiting the instances
/// in turn, and decomposes the traced rounds.
pub fn traced(setup: &Setup, tracer: &Tracer, pairs: usize) -> Traced {
    let mut untraced_round_ms = Vec::new();
    let mut traced_round_ms = Vec::new();
    let mut equivalent = true;
    let train_rows = AtomicUsize::new(0);
    for pair in 0..pairs {
        let instance = &setup.instances[pair % setup.instances.len()];
        let reference = session(instance);
        let traced = traced_session(instance, tracer, 1_000 * (pair as u64 + 1), &train_rows);
        equivalent &= traced.same_outcome(&reference);
        untraced_round_ms.extend(&reference.round_ms);
        traced_round_ms.extend(&traced.round_ms);
    }
    let spans = tracer.take();
    let t = totals(&spans);
    let rounds = traced_round_ms.len();
    let threads = rayon::current_num_threads();
    let per_round = |name: &str, fanned: bool| {
        let total = t.get(name).map_or(0.0, |x| x.self_ms);
        let wall = if fanned {
            total / threads as f64
        } else {
            total
        };
        wall / rounds as f64
    };
    let client_ms = t.get("fl.client").map_or(0.0, |x| x.total_ms);
    let fanout_ms = t.get("fl.fanout").map_or(0.0, |x| x.total_ms);
    let train_ms = per_round("core.fused.train", true);
    let denoise_ms = per_round("core.detector.denoise", true);
    let prepare_ms = per_round("fl.client.prepare", true);
    let aggregate_ms = per_round("fl.defense.aggregate", false);
    Traced {
        rounds,
        equivalent,
        train_ms,
        denoise_ms,
        prepare_ms,
        aggregate_ms,
        idle_share: 1.0 - client_ms / (threads as f64 * fanout_ms),
        train_rows: train_rows.into_inner() as f64 / rounds as f64,
        leftover_ms: stats::mean(&traced_round_ms)
            - (train_ms + denoise_ms + prepare_ms + aggregate_ms),
        untraced_round_ms,
        traced_round_ms,
        threads,
    }
}

/// Program-telemetry A/B over rounds: two sessions from the same template
/// stepped in lockstep, telemetry on for one and off for the other, so each
/// pair runs the same round index on identical state. Which session steps
/// first alternates pair by pair. Returns the on − off difference of each
/// pair, milliseconds, and whether both sessions kept bitwise the same
/// global model (telemetry is a side channel).
pub fn telemetry_pairs(instance: &Instance, rounds: usize) -> (Vec<f64>, bool) {
    let start_session = || {
        FlSession::builder(instance.template.clone_box())
            .clients(instance.fleet.clone())
            .build()
    };
    // Index 0 runs with telemetry on, index 1 with it off.
    let mut sessions = [start_session(), start_session()];
    let mut diffs = Vec::with_capacity(rounds);
    let mut same = true;
    for round in 0..rounds {
        let mut ms = [0.0; 2];
        for slot in 0..2 {
            let which = slot ^ (round % 2);
            safeloc_telemetry::set_enabled(which == 0);
            let start = Instant::now();
            sessions[which].next_round();
            ms[which] = start.elapsed().as_secs_f64() * 1e3;
        }
        diffs.push(ms[0] - ms[1]);
        same &= sessions[0].framework().global_params() == sessions[1].framework().global_params();
    }
    safeloc_telemetry::set_enabled(true);
    (diffs, same)
}
