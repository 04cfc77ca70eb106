//! Phase B: the server side of a cross-process round.
//!
//! A sender thread replays the cohort's pre-encoded frames over one
//! loopback `FrameConn`; the round receives them with `FrameConn::recv`,
//! re-materializes q8 deltas as `GM + decode(repr)`, runs the
//! `norm-clip+krum` defense pipeline and publishes the new global model's
//! classifier to the serving registry. The traced path drives the defense
//! stage by stage over one `RoundContext` and `Verdicts`, and must equal
//! `DefensePipeline::aggregate` bitwise.

use crate::setup::{classifier_view, Setup};
use crate::stats;
use crate::trace::{totals, Tracer};
use safeloc_fl::defense::{
    Combiner, DefensePipeline, DefenseStage, NormClip, RoundContext, Verdicts,
};
use safeloc_fl::{AggregationOutcome, Aggregator, ClientUpdate, Krum, UpdateDecision};
use safeloc_nn::NamedParams;
use safeloc_wire::{Frame, FrameConn, WireError};
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Norm cap as a multiple of the round's lower-median delta norm.
const CLIP_MULTIPLE: f32 = 3.0;

fn pipeline(krum_f: usize) -> DefensePipeline {
    DefensePipeline::new(
        "norm-clip+krum",
        vec![Box::new(NormClip::new(CLIP_MULTIPLE))],
        Box::new(Krum::new(krum_f)),
    )
}

/// The receiving end of the loopback link; each `replay` makes the sender
/// thread write every cohort frame once.
struct Link {
    rx: FrameConn,
    go: mpsc::Sender<()>,
}

/// Opens the loopback link, runs `body` and stops and joins the sender.
fn with_link<T>(frames: &[Vec<u8>], body: impl FnOnce(&mut Link) -> T) -> Result<T, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let (go, replays) = mpsc::channel::<()>();
        let sender = scope.spawn(move || -> Result<(), WireError> {
            let mut conn = FrameConn::connect(addr)?;
            while replays.recv().is_ok() {
                for frame in frames {
                    conn.send_raw(frame)?;
                }
            }
            Ok(())
        });
        let accepted = listener.accept().map_err(|e| e.to_string());
        let out = accepted.map(|(stream, _)| {
            let mut link = Link {
                rx: FrameConn::new(stream),
                go,
            };
            body(&mut link)
        });
        // Dropping the link (inside `map`) closed both the replay channel
        // and the socket, so the sender has returned or will on its next
        // write.
        let sent = sender
            .join()
            .map_err(|_| "frame sender panicked".to_string())?;
        let out = out?;
        sent.map_err(|e| format!("frame sender: {e}"))?;
        Ok(out)
    })
}

/// Runs `f` inside a span when tracing.
fn span<T>(tracer: Option<(&Tracer, u64, u64)>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some((t, parent, trace)) => t.scope(name, parent, trace, |_| f()),
        None => f(),
    }
}

/// Receives one cohort's worth of frames and re-materializes the updates.
fn receive(
    link: &mut Link,
    gm: &NamedParams,
    n: usize,
    tracer: Option<(&Tracer, u64, u64)>,
) -> Result<Vec<ClientUpdate>, WireError> {
    link.go
        .send(())
        .map_err(|_| WireError::Protocol("frame sender stopped".into()))?;
    let mut updates = Vec::with_capacity(n);
    for _ in 0..n {
        let frame = span(tracer, "wire.recv", || link.rx.recv())?;
        let update = match frame {
            Frame::Update(u) => {
                ClientUpdate::new(u.client_id as usize, u.params, u.num_samples as usize)
            }
            Frame::UpdateDelta(d) => span(tracer, "fl.delta.decode", || {
                let flat = d
                    .repr
                    .decode(gm.num_params())
                    .ok_or_else(|| WireError::Protocol("dense repr in a delta frame".into()))?;
                let mut params = gm.clone();
                params.add_flat(&flat);
                Ok::<_, WireError>(ClientUpdate::with_repr(
                    d.client_id as usize,
                    params,
                    d.num_samples as usize,
                    d.repr,
                ))
            })?,
            other => {
                return Err(WireError::Protocol(format!(
                    "unexpected {} frame",
                    other.kind()
                )))
            }
        };
        updates.push(update);
    }
    Ok(updates)
}

/// The defense pipeline's stages driven one by one, each in its own span.
fn staged(
    gm: &NamedParams,
    updates: &[ClientUpdate],
    krum_f: usize,
    tracer: (&Tracer, u64, u64),
) -> AggregationOutcome {
    let refs: Vec<&ClientUpdate> = updates.iter().collect();
    let ctx = RoundContext::new(gm, &refs);
    let tracer = Some(tracer);
    span(tracer, "fl.defense.context", || {
        ctx.deltas();
        ctx.raw_norms();
    });
    let mut verdicts = Verdicts::new(refs.len());
    span(tracer, "fl.defense.normclip", || {
        NormClip::new(CLIP_MULTIPLE).screen(&ctx, &mut verdicts)
    });
    let params = span(tracer, "fl.defense.krum", || {
        if verdicts.active_count() == 0 {
            gm.clone()
        } else {
            Krum::new(krum_f).combine(&ctx, &mut verdicts)
        }
    });
    AggregationOutcome {
        params,
        decisions: verdicts.into_decisions(),
    }
}

/// Aggregation weight given to honest and to all updates.
fn weights(
    outcome: &AggregationOutcome,
    updates: &[ClientUpdate],
    malicious: &[bool],
) -> (f64, f64) {
    let mut honest = 0.0;
    let mut total = 0.0;
    for (u, d) in updates.iter().zip(&outcome.decisions) {
        if let UpdateDecision::Accepted { weight } = d {
            total += f64::from(*weight);
            if !malicious[u.client_id] {
                honest += f64::from(*weight);
            }
        }
    }
    (honest, total)
}

/// One round's result.
struct Round {
    ms: f64,
    outcome: AggregationOutcome,
    updates: Vec<ClientUpdate>,
}

/// One production round, or with `tracer` the staged decomposition.
fn round(
    setup: &Setup,
    link: &mut Link,
    aggregator: &mut DefensePipeline,
    tracer: Option<(&Tracer, u64)>,
) -> Result<Round, WireError> {
    let cohort = &setup.cohort;
    let start = Instant::now();
    let root = tracer.map(|(t, trace)| (t, t.open("server.round", 0, trace), trace));
    let ctx = root.as_ref().map(|(t, open, trace)| (*t, open.id, *trace));
    let updates = receive(link, &cohort.gm, cohort.frames.len(), ctx)?;
    let outcome = match ctx {
        Some(ctx) => staged(&cohort.gm, &updates, cohort.krum_f, ctx),
        None => aggregator.aggregate(&cohort.gm, &updates),
    };
    let view = classifier_view(&setup.classifier, &outcome.params);
    let geometry = Some(setup.first().data.building.clone());
    span(ctx, "serve.registry.publish", || {
        setup.registry.publish(setup.default_key(), view, geometry)
    });
    let ms = match root {
        Some((t, open, _)) => t.close(open),
        None => start.elapsed().as_secs_f64() * 1e3,
    };
    Ok(Round {
        ms,
        outcome,
        updates,
    })
}

/// The phase's untraced result.
#[derive(Default)]
pub struct Phase {
    pub round_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Every round received exactly the cohort's updates and produced the
    /// same outcome as the first.
    pub consistent: bool,
    first: Option<AggregationOutcome>,
    pub honest_weight: f64,
    pub total_weight: f64,
}

impl Phase {
    pub fn new() -> Self {
        Self {
            consistent: true,
            ..Self::default()
        }
    }

    /// Runs rounds over a fresh link until `budget` has passed and at least
    /// `min_rounds` ran.
    pub fn run(
        &mut self,
        setup: &Setup,
        budget: Duration,
        min_rounds: usize,
    ) -> Result<(), String> {
        let cohort = &setup.cohort;
        with_link(&cohort.frames, |link| {
            let mut aggregator = pipeline(cohort.krum_f);
            let start = Instant::now();
            let mut rounds = 0;
            while rounds < min_rounds || start.elapsed() < budget {
                rounds += 1;
                self.attempted += 1;
                let r = match round(setup, link, &mut aggregator, None) {
                    Ok(r) => r,
                    Err(e) => {
                        // The stream may sit mid-frame: no later round can
                        // run on this link.
                        eprintln!("server round failed: {e}");
                        self.failed += 1;
                        self.consistent = false;
                        break;
                    }
                };
                self.round_ms.push(r.ms);
                self.consistent &= r.updates == cohort.updates;
                let (honest, total) = weights(&r.outcome, &r.updates, &cohort.malicious);
                self.honest_weight += honest;
                self.total_weight += total;
                match &self.first {
                    Some(f) => self.consistent &= *f == r.outcome,
                    None => self.first = Some(r.outcome),
                }
            }
        })
    }
}

/// Per-layer figures of the traced run, per round.
pub struct Traced {
    pub rounds: usize,
    /// Staged rounds equal the production pipeline's outcome bitwise.
    pub equivalent: bool,
    pub untraced_round_ms: Vec<f64>,
    pub traced_round_ms: Vec<f64>,
    pub recv_ms: f64,
    pub rx_bytes: f64,
    pub decode_ms: f64,
    pub context_ms: f64,
    pub normclip_ms: f64,
    pub krum_ms: f64,
    pub publish_ms: f64,
    pub leftover_ms: f64,
}

/// Alternates `pairs` production and traced rounds.
pub fn traced(setup: &Setup, tracer: &Tracer, pairs: usize) -> Result<Traced, String> {
    let cohort = &setup.cohort;
    let rounds = with_link(&cohort.frames, |link| {
        let mut aggregator = pipeline(cohort.krum_f);
        let mut pairs_out = Vec::with_capacity(pairs);
        for pair in 0..pairs {
            let production = round(setup, link, &mut aggregator, None)?;
            let traced = round(
                setup,
                link,
                &mut aggregator,
                Some((tracer, pair as u64 + 1)),
            )?;
            let all_finite = traced.updates.iter().all(|u| !u.params.has_non_finite());
            let equivalent = all_finite && traced.outcome == production.outcome;
            pairs_out.push((production.ms, traced.ms, equivalent));
        }
        Ok::<_, WireError>(pairs_out)
    })?
    .map_err(|e| e.to_string())?;
    let spans = tracer.take();
    let t = totals(&spans);
    let n = rounds.len() as f64;
    let per_round = |name: &str| t.get(name).map_or(0.0, |x| x.self_ms) / n;
    let traced_round_ms: Vec<f64> = rounds.iter().map(|r| r.1).collect();
    let parts = [
        "wire.recv",
        "fl.delta.decode",
        "fl.defense.context",
        "fl.defense.normclip",
        "fl.defense.krum",
        "serve.registry.publish",
    ];
    let covered: f64 = parts.iter().map(|p| per_round(p)).sum();
    Ok(Traced {
        rounds: rounds.len(),
        equivalent: rounds.iter().all(|r| r.2),
        untraced_round_ms: rounds.iter().map(|r| r.0).collect(),
        recv_ms: per_round("wire.recv"),
        rx_bytes: cohort.frames.iter().map(Vec::len).sum::<usize>() as f64,
        decode_ms: per_round("fl.delta.decode"),
        context_ms: per_round("fl.defense.context"),
        normclip_ms: per_round("fl.defense.normclip"),
        krum_ms: per_round("fl.defense.krum"),
        publish_ms: per_round("serve.registry.publish"),
        leftover_ms: stats::mean(&traced_round_ms) - covered,
        traced_round_ms,
    })
}

/// Program-telemetry A/B over server rounds, as in
/// [`crate::rounds::telemetry_pairs`]: on − off per pair, milliseconds.
pub fn telemetry_pairs(setup: &Setup, pairs: usize) -> Result<Vec<f64>, String> {
    let cohort = &setup.cohort;
    let diffs = with_link(&cohort.frames, |link| {
        let mut aggregator = pipeline(cohort.krum_f);
        let mut diffs = Vec::with_capacity(pairs);
        for pair in 0..pairs {
            let mut ms = [0.0; 2];
            for slot in 0..2 {
                let on = (slot == 0) == (pair % 2 == 0);
                safeloc_telemetry::set_enabled(on);
                ms[usize::from(!on)] = round(setup, link, &mut aggregator, None)?.ms;
            }
            diffs.push(ms[0] - ms[1]);
        }
        Ok::<_, WireError>(diffs)
    });
    safeloc_telemetry::set_enabled(true);
    diffs?.map_err(|e| e.to_string())
}
