//! Composable FL sessions: framework + fleet + plan stream in one value.
//!
//! An [`FlSession`] owns everything a federated deployment needs — the
//! [`Framework`], the client fleet behind a [`FleetProvider`], and a seeded
//! [`CohortSampler`] producing one [`RoundPlan`] per round — and yields a
//! [`RoundReport`] per executed round. The benchmark harness, the
//! paper-figure binaries and the examples all drive rounds through a
//! session; calling [`Framework::run_round`] by hand is for engines and
//! tests.
//!
//! Every round takes the same four steps: draw the plan over the fleet,
//! materialize only the cohort, run the framework on the cohort slice
//! under a slot-remapped plan, and hand the clients back to the provider.
//! A [`MaterializedFleet`] (what [`FlSessionBuilder::clients`] builds)
//! lends clients out of a `Vec<Client>`; a streaming provider builds them
//! on demand, so peak memory follows the cohort rather than the fleet
//! (see [`crate::fleet`]).
//!
//! ```
//! use safeloc_fl::{
//!     Client, CohortSampler, DefensePipeline, FlSession, Framework, SequentialFlServer,
//!     ServerConfig,
//! };
//! use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
//!
//! let data = BuildingDataset::generate(Building::tiny(3), &DatasetConfig::tiny(), 3);
//! let mut server = SequentialFlServer::new(
//!     &[data.building.num_aps(), 32, data.building.num_rps()],
//!     Box::new(DefensePipeline::fedavg()),
//!     ServerConfig::tiny(),
//! );
//! server.pretrain(&data.server_train);
//! let mut session = FlSession::builder(Box::new(server))
//!     .clients(Client::from_dataset(&data, 1))
//!     .sampler(CohortSampler::uniform(2, 7).with_dropout(0.1))
//!     .build();
//! for report in session.run(3) {
//!     assert!(report.clients.len() <= 2);
//! }
//! assert_eq!(session.rounds_run(), 3);
//! ```

use crate::client::Client;
use crate::fleet::{FleetProvider, MaterializedFleet};
use crate::framework::Framework;
use crate::report::{pooled_rate, RoundReport};
use crate::round::{CohortSampler, RoundPlan};
use safeloc_nn::NamedParams;

/// A hook observing every aggregated global model a session produces —
/// the bridge from training to serving.
///
/// Attached via [`FlSessionBuilder::publisher`], the hook runs after each
/// executed round with that round's [`RoundReport`] and the
/// post-aggregation global parameters. The serving layer implements this
/// to push hardened models into its hot-swappable registry while traffic
/// is being served; tests implement it to record trajectories.
///
/// `Send` because sessions (and their publishers) run on background
/// threads next to live inference traffic.
pub trait ModelPublisher: Send {
    /// Called once per executed round, after aggregation.
    fn publish_round(&mut self, report: &RoundReport, global: &NamedParams);
}

/// Builder for [`FlSession`] — see the module docs for a full example.
pub struct FlSessionBuilder {
    framework: Box<dyn Framework>,
    provider: Box<dyn FleetProvider>,
    sampler: CohortSampler,
    publisher: Option<Box<dyn ModelPublisher>>,
}

impl FlSessionBuilder {
    /// Sets a fully materialized client fleet: shorthand for
    /// `.provider(Box::new(MaterializedFleet::new(clients)))`.
    ///
    /// # Panics
    ///
    /// Panics if some client's `id` differs from its position (see
    /// [`MaterializedFleet::new`]).
    pub fn clients(self, clients: Vec<Client>) -> Self {
        self.provider(Box::new(MaterializedFleet::new(clients)))
    }

    /// Sets the source the session materializes each round's cohort from
    /// (default: an empty fleet).
    pub fn provider(mut self, provider: Box<dyn FleetProvider>) -> Self {
        self.provider = provider;
        self
    }

    /// Sets the cohort sampler (default: full participation, no churn —
    /// the paper's round shape). Full participation materializes the whole
    /// fleet every round; pick a bounded strategy to bound memory.
    pub fn sampler(mut self, sampler: CohortSampler) -> Self {
        self.sampler = sampler;
        self
    }

    /// Attaches a [`ModelPublisher`] observing every round's aggregated
    /// global model (default: none).
    pub fn publisher(mut self, publisher: Box<dyn ModelPublisher>) -> Self {
        self.publisher = Some(publisher);
        self
    }

    /// Finalizes the session.
    ///
    /// # Panics
    ///
    /// Panics if the sampler is not usable over the configured fleet —
    /// e.g. a [`CohortStrategy::Weighted`](crate::CohortStrategy::Weighted)
    /// weight vector whose length differs from the fleet size, which would
    /// silently make the tail of the fleet unsampleable.
    pub fn build(self) -> FlSession {
        if let Err(problem) = self.sampler.validate_for_fleet(self.provider.len()) {
            panic!("FlSession: {problem}");
        }
        FlSession {
            framework: self.framework,
            provider: self.provider,
            sampler: self.sampler,
            publisher: self.publisher,
            history: Vec::new(),
        }
    }
}

/// A running federated deployment: framework + fleet + plan stream.
///
/// The session numbers rounds from the count it has run itself; a
/// framework that already ran rounds before being handed over keeps its
/// own (higher) internal counter for [`RoundReport::round`].
pub struct FlSession {
    framework: Box<dyn Framework>,
    provider: Box<dyn FleetProvider>,
    sampler: CohortSampler,
    publisher: Option<Box<dyn ModelPublisher>>,
    history: Vec<RoundReport>,
}

impl FlSession {
    /// Starts building a session around a (typically pretrained)
    /// framework.
    pub fn builder(framework: Box<dyn Framework>) -> FlSessionBuilder {
        FlSessionBuilder {
            framework,
            provider: Box::new(MaterializedFleet::new(Vec::new())),
            sampler: CohortSampler::full(),
            publisher: None,
        }
    }

    /// Executes the next round: draws the plan over the fleet, runs the
    /// framework on the materialized cohort, hands the clients back,
    /// records the report, notifies the publisher (if any) and returns the
    /// report.
    pub fn next_round(&mut self) -> &RoundReport {
        let plan = self.sampler.plan(self.history.len(), self.provider.len());
        // Plans are sorted by fleet index on construction, so the cohort
        // slice is in fleet order, and the slot-remapped plan keeps every
        // member's availability: the framework sees the same active
        // clients in the same order as a run over the whole fleet.
        let mut cohort: Vec<Client> = plan
            .cohort()
            .iter()
            .map(|&(i, _)| self.provider.materialize(i))
            .collect();
        crate::metrics::fl_metrics().on_streaming_materialized(cohort.len() as i64);
        let slot_plan = RoundPlan::new(
            plan.cohort()
                .iter()
                .enumerate()
                .map(|(slot, &(_, availability))| (slot, availability))
                .collect(),
        );
        let report = self.framework.run_round(&mut cohort, &slot_plan);
        let reclaimed = cohort.len() as i64;
        for client in cohort {
            self.provider.reclaim(client);
        }
        crate::metrics::fl_metrics().on_streaming_materialized(-reclaimed);
        if let Some(publisher) = &mut self.publisher {
            publisher.publish_round(&report, &self.framework.global_params());
        }
        self.history.push(report);
        self.history.last().expect("just pushed")
    }

    /// Runs `n` more rounds and returns their reports.
    pub fn run(&mut self, n: usize) -> &[RoundReport] {
        let start = self.history.len();
        for _ in 0..n {
            self.next_round();
        }
        &self.history[start..]
    }

    /// Rounds executed by this session.
    pub fn rounds_run(&self) -> usize {
        self.history.len()
    }

    /// Every report so far, in round order.
    pub fn reports(&self) -> &[RoundReport] {
        &self.history
    }

    /// The framework under the session.
    pub fn framework(&self) -> &dyn Framework {
        self.framework.as_ref()
    }

    /// Mutable framework access (e.g. for τ sweeps between rounds).
    pub fn framework_mut(&mut self) -> &mut dyn Framework {
        self.framework.as_mut()
    }

    /// The fleet provider.
    pub fn provider(&self) -> &dyn FleetProvider {
        self.provider.as_ref()
    }

    /// Mutable provider access (e.g. to compromise a client between
    /// rounds: materialize it, change it, reclaim it).
    pub fn provider_mut(&mut self) -> &mut dyn FleetProvider {
        self.provider.as_mut()
    }

    /// Pooled attacker-rejection rate over every round run so far, or
    /// `None` if no malicious client ever delivered an update.
    pub fn attacker_rejection_rate(&self) -> Option<f32> {
        pooled_rate(self.history.iter(), RoundReport::attacker_rejection_rate)
    }

    /// Pooled honest-rejection rate over every round run so far.
    pub fn honest_rejection_rate(&self) -> Option<f32> {
        pooled_rate(self.history.iter(), RoundReport::honest_rejection_rate)
    }

    /// Dismantles the session into framework, fleet provider and report
    /// history.
    pub fn into_parts(self) -> (Box<dyn Framework>, Box<dyn FleetProvider>, Vec<RoundReport>) {
        (self.framework, self.provider, self.history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::DefensePipeline;
    use crate::round::RoundPlan;
    use crate::server::{SequentialFlServer, ServerConfig};
    use safeloc_attacks::{Attack, PoisonInjector};
    use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
    use safeloc_nn::HasParams;

    fn dataset() -> BuildingDataset {
        BuildingDataset::generate(Building::tiny(4), &DatasetConfig::tiny(), 4)
    }

    fn pretrained(data: &BuildingDataset, agg: Box<dyn crate::Aggregator>) -> SequentialFlServer {
        let mut s = SequentialFlServer::new(
            &[data.building.num_aps(), 24, data.building.num_rps()],
            agg,
            ServerConfig::tiny(),
        );
        s.pretrain(&data.server_train);
        s
    }

    #[test]
    fn full_session_matches_manual_run_round_bitwise() {
        let data = dataset();
        let server = pretrained(&data, Box::new(DefensePipeline::fedavg()));

        let mut manual = server.clone();
        let mut clients = Client::from_dataset(&data, 0);
        let plan = RoundPlan::full(clients.len());
        for _ in 0..3 {
            manual.run_round(&mut clients, &plan);
        }

        let mut session = FlSession::builder(Box::new(server))
            .clients(Client::from_dataset(&data, 0))
            .build();
        session.run(3);

        assert_eq!(
            session.framework().global_params(),
            manual.global_model().snapshot(),
            "session with the default sampler diverged from manual full rounds"
        );
        assert_eq!(session.rounds_run(), 3);
        assert!(session
            .reports()
            .iter()
            .all(|r| r.accepted() == session.provider().len()));
    }

    #[test]
    fn partial_sessions_report_smaller_cohorts() {
        let data = dataset();
        let server = pretrained(&data, Box::new(DefensePipeline::fedavg()));
        let mut session = FlSession::builder(Box::new(server))
            .clients(Client::from_dataset(&data, 0))
            .sampler(CohortSampler::uniform(2, 5))
            .build();
        session.run(4);
        assert!(session.reports().iter().all(|r| r.clients.len() == 2));
    }

    #[test]
    fn krum_session_surfaces_attacker_rejections() {
        let data = dataset();
        let server = pretrained(&data, Box::new(DefensePipeline::krum(1)));
        let mut clients = Client::from_dataset(&data, 0);
        let last = clients.len() - 1;
        clients[last].injector =
            Some(PoisonInjector::new(Attack::label_flip(1.0), 3).with_boost(6.0));
        let mut session = FlSession::builder(Box::new(server))
            .clients(clients)
            .build();
        session.run(3);
        let rate = session
            .attacker_rejection_rate()
            .expect("attacker participated");
        assert!(
            rate > 0.5,
            "Krum should reject the boosted label-flipper most rounds: {rate}"
        );
        let honest = session
            .honest_rejection_rate()
            .expect("honest participated");
        assert!(honest < 1.0, "Krum rejected every honest update: {honest}");
    }

    #[test]
    #[should_panic(expected = "one weight per client")]
    fn weighted_sampler_with_wrong_length_is_rejected_at_build() {
        let data = dataset();
        let server = pretrained(&data, Box::new(DefensePipeline::fedavg()));
        let clients = Client::from_dataset(&data, 0);
        // One weight short: the last client would silently never be drawn.
        let weights = vec![1.0; clients.len() - 1];
        let _ = FlSession::builder(Box::new(server))
            .clients(clients)
            .sampler(CohortSampler::weighted(2, weights, 5))
            .build();
    }

    #[test]
    fn data_volume_weighted_sampler_builds_and_runs() {
        let data = dataset();
        let server = pretrained(&data, Box::new(DefensePipeline::fedavg()));
        let clients = Client::from_dataset(&data, 0);
        let sampler = CohortSampler::weighted_by_data_volume(2, &clients, 9);
        let mut session = FlSession::builder(Box::new(server))
            .clients(clients)
            .sampler(sampler)
            .build();
        session.run(3);
        assert!(session.reports().iter().all(|r| r.clients.len() == 2));
    }

    #[test]
    fn all_zero_weights_yield_empty_rounds_and_keep_the_gm() {
        let data = dataset();
        let server = pretrained(&data, Box::new(DefensePipeline::fedavg()));
        let clients = Client::from_dataset(&data, 0);
        let before = server.global_model().snapshot();
        let n = clients.len();
        let mut session = FlSession::builder(Box::new(server))
            .clients(clients)
            .sampler(CohortSampler::weighted(3, vec![0.0; n], 5))
            .build();
        session.run(2);
        assert!(session.reports().iter().all(|r| r.clients.is_empty()));
        assert_eq!(
            session.framework().global_params(),
            before,
            "empty cohorts must not move the GM"
        );
    }

    #[test]
    fn publisher_sees_every_round_gm_in_order() {
        use std::sync::{Arc, Mutex};

        struct Recorder {
            log: Arc<Mutex<Vec<(usize, crate::report::RoundReport, safeloc_nn::NamedParams)>>>,
        }
        impl ModelPublisher for Recorder {
            fn publish_round(
                &mut self,
                report: &crate::report::RoundReport,
                global: &safeloc_nn::NamedParams,
            ) {
                let mut log = self.log.lock().unwrap();
                let n = log.len();
                log.push((n, report.clone(), global.clone()));
            }
        }

        let data = dataset();
        let server = pretrained(&data, Box::new(DefensePipeline::fedavg()));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut session = FlSession::builder(Box::new(server))
            .clients(Client::from_dataset(&data, 0))
            .publisher(Box::new(Recorder { log: log.clone() }))
            .build();
        session.run(3);

        let log = log.lock().unwrap();
        assert_eq!(log.len(), 3, "one publish per executed round");
        // The publisher saw the same reports the session recorded, and the
        // final published GM is the session's final GM, bitwise.
        for (i, (seq, report, _)) in log.iter().enumerate() {
            assert_eq!(*seq, i);
            assert_eq!(report.round, session.reports()[i].round);
        }
        assert_eq!(log.last().unwrap().2, session.framework().global_params());
    }

    #[test]
    fn session_is_deterministic_given_seeds() {
        let data = dataset();
        let run = || {
            let server = pretrained(&data, Box::new(DefensePipeline::fedavg()));
            let mut session = FlSession::builder(Box::new(server))
                .clients(Client::from_dataset(&data, 0))
                .sampler(
                    CohortSampler::uniform(3, 9)
                        .with_dropout(0.2)
                        .with_straggle(0.2),
                )
                .build();
            session.run(4);
            let (framework, _, reports) = session.into_parts();
            (
                framework.global_params(),
                reports.into_iter().map(|r| r.clients).collect::<Vec<_>>(),
            )
        };
        let (gm_a, outcomes_a) = run();
        let (gm_b, outcomes_b) = run();
        assert_eq!(gm_a, gm_b);
        assert_eq!(outcomes_a, outcomes_b);
    }
}
