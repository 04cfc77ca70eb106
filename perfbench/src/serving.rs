//! Phase C: open-loop serving against an in-process `Service`.
//!
//! One generator thread (the caller) submits requests at Poisson arrival
//! times drawn from the workload seed and hot-swaps the building default
//! once per SAFELOC round (the median round time measured in the same
//! run); one collector thread waits on the tickets in submission order. Latency runs from each request's *due* time, so a
//! stalled generator or service charges every request queued behind it.

use crate::setup::Setup;
use crate::stats;
use crate::trace::{totals, Tracer};
use crate::Json;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use safeloc_nn::{Matrix, Sequential};
use safeloc_serve::{
    LocalizeResponse, ModelKey, RequestFront, ServeConfig, ServeError, ServedModel, Service,
    Ticket, DEFAULT_CLASS,
};
use safeloc_telemetry::{Histogram, Registry};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The two fixed rates: a lone request waits out the batch deadline at
/// the first, batches fill before the deadline at the second.
pub const SLOW_RPS: f64 = 1_000.0;
pub const FAST_RPS: f64 = 32_000.0;
/// The fixed rate ladder `max_rps` is read from: 4k req/s × 1.1^k, to the
/// nearest 1k, up to 256k.
fn ladder() -> Vec<f64> {
    (0..)
        .map(|k| (4.0 * 1.1f64.powi(k)).round() * 1_000.0)
        .take_while(|&rate| rate <= 256_000.0)
        .collect()
}
/// The coarse pass tries every `COARSE`-th ladder rate; the fine pass then
/// tries the rates between the highest coarse rung met and the next one.
const COARSE: usize = 4;
/// A rung meets the latency limit when p99 stays at or below this.
pub const P99_LIMIT_MS: f64 = 10.0;
/// The generator is on schedule when its p90 lateness stays at or below
/// this and it reaches 95% of the offered rate.
pub const LATE_LIMIT_MS: f64 = 1.0;
/// Requests per window of the windowed p99 (ten beyond the percentile).
const P99_WINDOW: usize = 1_000;
/// Each pass stops after this many consecutive rungs miss.
const LADDER_PATIENCE: usize = 2;

/// How long each part of the phase runs, seconds.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Total seconds at 1k and at 32k req/s, split over the run's segments.
    pub slow_s: f64,
    pub fast_s: f64,
    /// Seconds per ladder rung; `None` skips the ladder.
    pub rung_s: Option<f64>,
}

/// Offline expectations for every pool request.
struct Expected {
    /// Device class admission routes the request to.
    class: Vec<String>,
    /// Offline `ServedModel::predict` of the request under each hot-swap
    /// candidate (default-routed requests) ...
    by_candidate: Vec<Vec<usize>>,
    /// ... and under the request's phone variant (variant-routed ones).
    by_variant: Vec<Option<usize>>,
}

impl Expected {
    fn build(setup: &Setup, candidates: &[Sequential]) -> Self {
        let front = RequestFront::new(Arc::clone(&setup.registry), setup.catalog.clone());
        let admitted: Vec<_> = setup
            .pool
            .iter()
            .map(|r| {
                front
                    .admit(r)
                    .expect("pool requests fit the building's models")
            })
            .collect();
        let cols = admitted[0].features.len();
        let rows: Vec<f32> = admitted.iter().flat_map(|a| a.features.clone()).collect();
        let x = Matrix::from_vec(admitted.len(), cols, rows).expect("one row per request");
        let by_candidate = candidates
            .iter()
            .map(|network| {
                ServedModel {
                    key: setup.default_key(),
                    version: 0,
                    network: network.clone(),
                    geometry: None,
                }
                .predict(&x)
            })
            .collect();
        let mut variant_labels: HashMap<String, Vec<usize>> = HashMap::new();
        let by_variant = admitted
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if a.device_class == DEFAULT_CLASS {
                    return None;
                }
                let labels = variant_labels
                    .entry(a.device_class.clone())
                    .or_insert_with(|| {
                        setup
                            .registry
                            .get(&ModelKey::new(
                                setup.first().data.building.id,
                                &a.device_class,
                            ))
                            .expect("every catalog phone has a variant")
                            .predict(&x)
                    });
                Some(labels[i])
            })
            .collect();
        Self {
            class: admitted.iter().map(|a| a.device_class.clone()).collect(),
            by_candidate,
            by_variant,
        }
    }
}

/// A submitted request on its way to the collector.
struct Pending {
    idx: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    ticket: Result<Ticket, ServeError>,
}

/// A finished request.
struct Done {
    idx: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    done: Instant,
    response: Option<LocalizeResponse>,
}

/// The outcome of one fixed-rate step.
pub struct Step {
    pub rate: f64,
    pub requests: usize,
    pub refused: usize,
    /// Per request, due → response, milliseconds (refused: infinite).
    pub latency_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub achieved_rps: f64,
    /// Outstanding requests at the end of the schedule minus at its middle.
    pub backlog_growth: f64,
    pub batch_size_mean: f64,
    /// Means of the per-request parts when traced: lateness, submit and
    /// wait, plus their leftover against the mean latency.
    pub parts: Option<Parts>,
    /// Every response matched its offline prediction, and versions never
    /// went down.
    pub correct: bool,
    pub versions: (u64, u64),
}

/// Mean per-request decomposition of a traced step.
#[derive(Debug, Clone, Copy)]
pub struct Parts {
    pub late_ms: f64,
    pub submit_us: f64,
    pub wait_ms: f64,
    pub leftover_us: f64,
}

impl Step {
    pub fn p50(&self) -> f64 {
        stats::quantile(&self.latency_ms, 0.5)
    }

    /// p99 within consecutive windows of at least `P99_WINDOW` requests,
    /// median over the windows (see [`stats::window_quantiles`]). The
    /// pooled p99 is in the diagnostics.
    pub fn p99(&self) -> f64 {
        stats::median(&stats::window_quantiles(&self.latency_ms, P99_WINDOW, 0.99))
    }

    /// The generator kept the offered rate without falling behind.
    pub fn on_schedule(&self) -> bool {
        stats::quantile(&self.late_ms, 0.9) <= LATE_LIMIT_MS
            && self.achieved_rps >= 0.95 * self.rate
    }

    pub fn backlog_steady(&self) -> bool {
        self.backlog_growth <= 64.0 + self.rate * 0.002
    }

    /// The rung counts toward `max_rps`: latency limit, no growing
    /// backlog, generator on schedule.
    pub fn met(&self) -> bool {
        self.p99() <= P99_LIMIT_MS && self.backlog_steady() && self.on_schedule()
    }

    pub fn to_json(&self) -> Json {
        obj! {
            "offered_rps" => self.rate,
            "achieved_rps" => self.achieved_rps,
            "requests" => self.requests,
            "refused" => self.refused,
            "p50_ms" => self.p50(),
            "p99_ms" => self.p99(),
            "pooled_p99_ms" => stats::quantile(&self.latency_ms, 0.99),
            "window_p99_ms" => stats::window_quantiles(&self.latency_ms, P99_WINDOW, 0.99),
            "late_p90_ms" => stats::quantile(&self.late_ms, 0.9),
            "late_p99_ms" => stats::quantile(&self.late_ms, 0.99),
            "late_max_ms" => stats::quantile(&self.late_ms, 1.0),
            "backlog_growth" => self.backlog_growth,
            "batch_size_mean" => self.batch_size_mean,
            "on_schedule" => self.on_schedule(),
            "met" => self.met(),
            "versions" => self.versions,
        }
    }
}

/// A running service plus what the generator needs to hot-swap it.
pub struct Harness<'a> {
    setup: &'a Setup,
    service: Service,
    batch_sizes: Arc<Histogram>,
    candidates: Vec<Sequential>,
    expected: Expected,
    /// Default-model version → candidate it was published from.
    published: HashMap<u64, usize>,
    swaps: usize,
    /// Schedule time between hot swaps.
    swap_period: Duration,
}

impl<'a> Harness<'a> {
    /// Starts a service with the default configuration over the set-up's
    /// registry; hot swaps cycle through `candidates`, one every
    /// `swap_period` of schedule time.
    pub fn start(setup: &'a Setup, candidates: Vec<Sequential>, swap_period: Duration) -> Self {
        let expected = Expected::build(setup, &candidates);
        let telemetry = Arc::new(Registry::new());
        let batch_sizes = telemetry.histogram("serve_batch_size", &[]);
        let service = Service::start_with_telemetry(
            Arc::clone(&setup.registry),
            setup.catalog.clone(),
            ServeConfig::default(),
            telemetry,
        );
        Self {
            setup,
            service,
            batch_sizes,
            candidates,
            expected,
            published: HashMap::new(),
            swaps: 0,
            swap_period,
        }
    }

    pub fn swap_period(&self) -> Duration {
        self.swap_period
    }

    fn swap(&mut self) {
        let candidate = self.swaps % self.candidates.len();
        self.swaps += 1;
        let version = self.setup.registry.publish(
            self.setup.default_key(),
            self.candidates[candidate].clone(),
            Some(self.setup.first().data.building.clone()),
        );
        self.published.insert(version, candidate);
    }

    /// Runs one open-loop step at `rate` for `seconds`.
    pub fn step(&mut self, rate: f64, seconds: f64, seed: u64, tracer: Option<&Tracer>) -> Step {
        let schedule = schedule(rate, seconds, seed, self.setup.pool.len());
        let (count0, sum0) = (self.batch_sizes.count(), self.batch_sizes.sum());
        // The step starts on a fresh version so every request pins a
        // version whose candidate is known.
        self.swap();
        let lead_in = Duration::from_millis(2);
        let start = Instant::now() + lead_in;
        let mut next_swap = self.swap_period;
        let (tx, rx) = mpsc::channel::<Pending>();
        let done: Vec<Done> = std::thread::scope(|scope| {
            let collector = scope.spawn(move || collect(rx));
            for &(offset, idx) in &schedule {
                while next_swap <= offset {
                    self.swap();
                    next_swap += self.swap_period;
                }
                let due = start + offset;
                pace(due);
                let submit_start = Instant::now();
                let ticket = self.service.submit(&self.setup.pool[idx]);
                let submit_end = Instant::now();
                let pending = Pending {
                    idx,
                    due,
                    submit_start,
                    submit_end,
                    ticket,
                };
                if tx.send(pending).is_err() {
                    break;
                }
            }
            drop(tx);
            collector.join().expect("collector thread panicked")
        });
        let schedule_end = start + schedule.last().map_or(Duration::ZERO, |s| s.0);
        let count = self.batch_sizes.count() - count0;
        let batch_size_mean = (self.batch_sizes.sum() - sum0) / count.max(1) as f64;
        self.summarize(rate, start, schedule_end, done, batch_size_mean, tracer)
    }

    fn summarize(
        &self,
        rate: f64,
        start: Instant,
        schedule_end: Instant,
        done: Vec<Done>,
        batch_size_mean: f64,
        tracer: Option<&Tracer>,
    ) -> Step {
        let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
        let mut correct = true;
        let mut last_default_version = 0;
        let mut versions = (u64::MAX, 0);
        let mut refused = 0;
        let mut latency_ms = Vec::with_capacity(done.len());
        let mut late_ms = Vec::with_capacity(done.len());
        for d in &done {
            late_ms.push(ms(d.due, d.submit_start));
            let Some(r) = &d.response else {
                refused += 1;
                latency_ms.push(f64::INFINITY);
                continue;
            };
            latency_ms.push(ms(d.due, d.done));
            let expected = if r.device_class == DEFAULT_CLASS {
                // Submission order is version order: a request never pins
                // an older default than the one before it.
                correct &= r.model_version >= last_default_version;
                last_default_version = r.model_version;
                versions = (
                    versions.0.min(r.model_version),
                    versions.1.max(r.model_version),
                );
                self.published
                    .get(&r.model_version)
                    .map(|&c| self.expected.by_candidate[c][d.idx])
            } else {
                self.expected.by_variant[d.idx]
            };
            correct &= r.device_class == self.expected.class[d.idx] && expected == Some(r.label);
        }
        let last_submit = done.iter().map(|d| d.submit_end).max().unwrap_or(start);
        let outstanding = |t: Instant| {
            let submitted = done.iter().filter(|d| d.submit_end <= t).count();
            let finished = done
                .iter()
                .filter(|d| d.response.is_some() && d.done <= t)
                .count();
            submitted as f64 - finished as f64
        };
        let middle = start + (schedule_end - start) / 2;
        let parts = tracer.map(|t| {
            for (i, d) in done.iter().enumerate() {
                let trace = i as u64 + 1;
                let root = t.record("serve.request", 0, trace, d.due, d.done);
                t.record("loadgen.late", root, trace, d.due, d.submit_start);
                t.record("serve.submit", root, trace, d.submit_start, d.submit_end);
                t.record("serve.wait", root, trace, d.submit_end, d.done);
            }
            let spans = t.take();
            let tt = totals(&spans);
            let n = done.len().max(1) as f64;
            let mean = |name: &str| tt.get(name).map_or(0.0, |x| x.total_ms) / n;
            Parts {
                late_ms: mean("loadgen.late"),
                submit_us: mean("serve.submit") * 1e3,
                wait_ms: mean("serve.wait"),
                leftover_us: mean("serve.request") * 1e3
                    - (mean("loadgen.late") + mean("serve.submit") + mean("serve.wait")) * 1e3,
            }
        });
        Step {
            rate,
            requests: done.len(),
            refused,
            achieved_rps: done.len() as f64
                / last_submit
                    .saturating_duration_since(start)
                    .as_secs_f64()
                    .max(1e-9),
            backlog_growth: outstanding(schedule_end) - outstanding(middle),
            batch_size_mean,
            latency_ms,
            late_ms,
            parts,
            correct,
            versions: (versions.0.min(versions.1), versions.1),
        }
    }

    /// Stops the service and waits for its workers.
    pub fn shutdown(self) {
        self.service.shutdown();
    }
}

/// Poisson arrivals at `rate` for `seconds`: (offset from the step start,
/// pool index) pairs, from `seed` alone.
fn schedule(rate: f64, seconds: f64, seed: u64, pool: usize) -> Vec<(Duration, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // Uniform in (0, 1) from the top 53 bits.
            let u = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            t += -u.ln() / rate;
            (
                Duration::from_secs_f64(t),
                (rng.next_u64() % pool as u64) as usize,
            )
        })
        .collect()
}

/// Waits until `due`: sleeps while more than 300 µs away, then yields in
/// a loop. A generator that spun through whole gaps would hold a core the
/// service's workers need to wake on time at low rates.
fn pace(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The collector: waits on each ticket in submission order.
fn collect(rx: mpsc::Receiver<Pending>) -> Vec<Done> {
    let mut out = Vec::new();
    for p in rx {
        let response = p.ticket.ok().and_then(|t| t.wait().ok());
        out.push(Done {
            idx: p.idx,
            due: p.due,
            submit_start: p.submit_start,
            submit_end: p.submit_end,
            done: Instant::now(),
            response,
        });
    }
    out
}

/// Highest rate among `ladder` steps that met every condition (`NaN` if
/// none did).
pub fn max_rps(ladder: &[Step]) -> f64 {
    ladder
        .iter()
        .filter(|s| s.met())
        .map(|s| s.rate)
        .fold(f64::NAN, f64::max)
}

/// Climbs the rate ladder with `rung_s`-second rungs: a coarse pass, then
/// a fine pass above the highest coarse rung met.
pub fn climb_ladder(harness: &mut Harness<'_>, rung_s: f64, seed: u64) -> Vec<Step> {
    let mut steps = Vec::new();
    let rates = ladder();
    let mut climb = |indices: &mut dyn Iterator<Item = usize>| {
        let mut highest_met = None;
        let mut misses = 0;
        for i in indices {
            // A missed rung gets a second try, so one host stall does not
            // decide it.
            let mut met = false;
            for attempt in 0..2 {
                let step_seed = seed ^ ((i as u64 + 1) << 20) ^ attempt;
                let step = harness.step(rates[i], rung_s, step_seed, None);
                met = step.met();
                steps.push(step);
                if met {
                    break;
                }
            }
            if met {
                highest_met = Some(i);
                misses = 0;
            } else {
                misses += 1;
            }
            if misses == LADDER_PATIENCE {
                break;
            }
        }
        highest_met
    };
    let coarse = climb(&mut (0..rates.len()).step_by(COARSE));
    let fine_from = coarse.map_or(0, |i| i + 1);
    climb(&mut (fine_from..(fine_from + COARSE - 1).min(rates.len())));
    steps
}

/// The traced fixed-rate steps: (slow, fast), each with its parts.
pub fn traced(
    setup: &Setup,
    candidates: Vec<Sequential>,
    swap_period: Duration,
    plan: Plan,
    seed: u64,
    tracer: &Tracer,
) -> (Step, Step) {
    let mut harness = Harness::start(setup, candidates, swap_period);
    let slow = harness.step(SLOW_RPS, plan.slow_s, seed ^ 0x51, Some(tracer));
    let fast = harness.step(FAST_RPS, plan.fast_s, seed ^ 0xFA, Some(tracer));
    harness.shutdown();
    (slow, fast)
}

/// Program-telemetry A/B at the fast rate: `pairs` step pairs, on − off
/// difference of each pair's p50 latency, milliseconds.
pub fn telemetry_pairs(
    setup: &Setup,
    candidates: Vec<Sequential>,
    swap_period: Duration,
    seconds: f64,
    seed: u64,
    pairs: usize,
) -> (Vec<f64>, bool) {
    let mut harness = Harness::start(setup, candidates, swap_period);
    let mut diffs = Vec::with_capacity(pairs);
    let mut correct = true;
    for pair in 0..pairs {
        let mut p50 = [0.0; 2];
        for slot in 0..2 {
            let on = (slot == 0) == (pair % 2 == 0);
            safeloc_telemetry::set_enabled(on);
            let step = harness.step(FAST_RPS, seconds, seed ^ 0x7E ^ ((pair as u64) << 8), None);
            correct &= step.correct && step.refused == 0;
            p50[usize::from(!on)] = step.p50();
        }
        diffs.push(p50[0] - p50[1]);
    }
    safeloc_telemetry::set_enabled(true);
    harness.shutdown();
    (diffs, correct)
}
