//! Fleet providers: where a session's clients come from.
//!
//! An [`FlSession`](crate::FlSession) never holds its fleet as a whole.
//! Each round it asks a [`FleetProvider`] for exactly the clients the
//! round's [`RoundPlan`](crate::RoundPlan) names, runs the framework over
//! that cohort, and hands the clients back. [`MaterializedFleet`] lends
//! them out of a `Vec<Client>`, which is the right shape for paper-scale
//! experiments (tens of clients). At city scale (10⁴–10⁵ phones) a
//! provider that builds clients on demand bounds peak memory by cohort
//! size rather than fleet size.
//!
//! Determinism is preserved by construction:
//!
//! * [`Client::single_from_dataset`] builds client `i` exactly as
//!   [`Client::from_dataset`] would (same `seed ^ ((i+1) << 32)` stream),
//!   so a stateless client rebuilt next round is bitwise the client that
//!   was dropped.
//! * The cohort slice is ordered by fleet index (plans sort on
//!   construction) and the remapped plan preserves per-client
//!   [`Availability`](crate::Availability), so the framework sees the same
//!   active clients in the same order as a run over the whole fleet.
//! * Round reports keep true fleet identities: report entries carry
//!   `Client::id`, not the cohort slot.
//!
//! Providers only need to persist clients with round-to-round state — a
//! poison injector's RNG stream or a [`DeltaCompressor`](crate::DeltaCompressor)'s error-feedback
//! residual ([`Client::has_round_state`]). Everything else can be rebuilt
//! on demand.

use crate::client::Client;

impl Client {
    /// `true` if the client carries state that must survive between
    /// rounds: a poison injector (whose RNG stream advances per round) or
    /// a compressor that has accumulated an error-feedback residual.
    /// Stateless clients rebuild bitwise-identically from their seed, so
    /// streaming fleets may drop them after each round.
    pub fn has_round_state(&self) -> bool {
        self.injector.is_some() || self.compressor.as_ref().is_some_and(|c| c.has_state())
    }
}

/// A source of clients that can be materialized one at a time.
///
/// Contract: `materialize(i)` returns the fleet's client `i`, either
/// rebuilt from scratch or restored from a previous [`reclaim`]. For a
/// client without round-to-round state ([`Client::has_round_state`]) the
/// rebuilt copy must be bitwise the reclaimed one, so providers are free
/// to drop it; stateful clients must round-trip through `reclaim`.
///
/// `Send` so sessions can run on background threads.
///
/// [`reclaim`]: FleetProvider::reclaim
pub trait FleetProvider: Send {
    /// Total fleet size (clients are indexed `0..len()`).
    fn len(&self) -> usize;

    /// `true` if the fleet is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes fleet client `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    fn materialize(&mut self, index: usize) -> Client;

    /// Returns a client after its round, giving the provider the chance
    /// to persist round-to-round state.
    fn reclaim(&mut self, client: Client);
}

/// A fully materialized fleet behind the [`FleetProvider`] interface —
/// what [`FlSessionBuilder::clients`](crate::FlSessionBuilder::clients)
/// builds.
///
/// `materialize` moves a client out of its slot and `reclaim` moves it
/// back, so a round copies no client and stateful clients (injectors,
/// compressor residuals) persist exactly as in a `Vec<Client>`.
pub struct MaterializedFleet {
    clients: Vec<Option<Client>>,
}

impl MaterializedFleet {
    /// Wraps a fleet. Clients must sit at their own index (`clients[i].id
    /// == i`), which is how every fleet constructor builds them.
    ///
    /// # Panics
    ///
    /// Panics if some client's `id` differs from its position.
    pub fn new(clients: Vec<Client>) -> Self {
        for (i, c) in clients.iter().enumerate() {
            assert_eq!(
                c.id, i,
                "MaterializedFleet: client {} sits at slot {i}",
                c.id
            );
        }
        Self {
            clients: clients.into_iter().map(Some).collect(),
        }
    }
}

impl FleetProvider for MaterializedFleet {
    fn len(&self) -> usize {
        self.clients.len()
    }

    fn materialize(&mut self, index: usize) -> Client {
        self.clients[index]
            .take()
            .unwrap_or_else(|| panic!("MaterializedFleet: client {index} is already lent out"))
    }

    fn reclaim(&mut self, client: Client) {
        let slot = client.id;
        self.clients[slot] = Some(client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::DefensePipeline;
    use crate::delta::{DeltaCompressor, DeltaSpec};
    use crate::round::CohortSampler;
    use crate::server::{SequentialFlServer, ServerConfig};
    use crate::session::FlSession;
    use crate::Framework;
    use safeloc_attacks::{Attack, PoisonInjector};
    use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
    use std::collections::BTreeMap;

    fn dataset() -> BuildingDataset {
        BuildingDataset::generate(Building::tiny(4), &DatasetConfig::tiny(), 5)
    }

    fn pretrained(data: &BuildingDataset) -> SequentialFlServer {
        let mut s = SequentialFlServer::new(
            &[data.building.num_aps(), 24, data.building.num_rps()],
            Box::new(DefensePipeline::fedavg()),
            ServerConfig::tiny(),
        );
        s.pretrain(&data.server_train);
        s
    }

    /// Fleet client `i` as first built: one stateful attacker and one
    /// compressing client, to exercise the reclaim path for both kinds of
    /// round-to-round state.
    fn configured(mut client: Client) -> Client {
        match client.id {
            1 => client.injector = Some(PoisonInjector::new(Attack::label_flip(1.0), 3)),
            2 => client.compressor = Some(DeltaCompressor::new(DeltaSpec::TopK { fraction: 0.1 })),
            _ => {}
        }
        client
    }

    fn fleet(data: &BuildingDataset) -> Vec<Client> {
        Client::from_dataset(data, 0)
            .into_iter()
            .map(configured)
            .collect()
    }

    /// A streaming provider: keeps only clients with round-to-round state
    /// and rebuilds every other one from its seed stream on demand.
    struct RebuildOnDemand {
        data: BuildingDataset,
        kept: BTreeMap<usize, Client>,
    }

    impl FleetProvider for RebuildOnDemand {
        fn len(&self) -> usize {
            self.data.num_clients()
        }

        fn materialize(&mut self, index: usize) -> Client {
            self.kept
                .remove(&index)
                .unwrap_or_else(|| configured(Client::single_from_dataset(&self.data, 0, index)))
        }

        fn reclaim(&mut self, client: Client) {
            if client.has_round_state() {
                self.kept.insert(client.id, client);
            }
        }
    }

    #[test]
    fn single_from_dataset_matches_the_fleet_constructor() {
        let data = dataset();
        let fleet = Client::from_dataset(&data, 42);
        for (i, c) in fleet.iter().enumerate() {
            let solo = Client::single_from_dataset(&data, 42, i);
            assert_eq!(solo.id, c.id);
            assert_eq!(solo.seed, c.seed);
            assert_eq!(solo.device_name, c.device_name);
            assert_eq!(solo.local, c.local);
        }
    }

    #[test]
    fn streaming_matches_materialized_session_bitwise_under_churn() {
        let data = dataset();
        let sampler = || {
            CohortSampler::uniform(3, 9)
                .with_dropout(0.2)
                .with_straggle(0.2)
        };

        let mut dense = FlSession::builder(Box::new(pretrained(&data)))
            .clients(fleet(&data))
            .sampler(sampler())
            .build();
        dense.run(4);

        let provider = RebuildOnDemand {
            data: data.clone(),
            kept: BTreeMap::new(),
        };
        let mut streaming = FlSession::builder(Box::new(pretrained(&data)))
            .provider(Box::new(provider))
            .sampler(sampler())
            .build();
        streaming.run(4);

        assert_eq!(
            streaming.framework().global_params(),
            dense.framework().global_params(),
            "streaming cohorts diverged from the materialized fleet"
        );
        for (s, d) in streaming.reports().iter().zip(dense.reports()) {
            assert_eq!(s.clients, d.clients, "per-round outcomes diverged");
        }
    }

    #[test]
    fn streaming_reports_true_fleet_ids_not_cohort_slots() {
        let data = dataset();
        let n = data.num_clients();
        let mut session = FlSession::builder(Box::new(pretrained(&data)))
            .clients(fleet(&data))
            .sampler(CohortSampler::uniform(2, 7))
            .build();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..4 {
            let report = session.next_round();
            assert_eq!(report.clients.len(), 2);
            for c in &report.clients {
                assert!(c.client_id < n);
                seen.insert(c.client_id);
            }
        }
        assert!(
            seen.len() > 2,
            "four uniform(2-of-{n}) rounds should touch more than one cohort's worth of ids: {seen:?}"
        );
    }

    #[test]
    fn reclaim_persists_compressor_residuals() {
        let data = dataset();
        let mut session = FlSession::builder(Box::new(pretrained(&data)))
            .clients(fleet(&data))
            .build();
        session.run(1);
        // Downcast-free check: materialize the compressing client again
        // and confirm its residual survived the round.
        let c = session.provider_mut().materialize(2);
        assert!(
            c.compressor.as_ref().unwrap().has_state(),
            "error-feedback residual was lost on reclaim"
        );
        assert!(c.has_round_state());
        session.provider_mut().reclaim(c);
    }

    #[test]
    #[should_panic(expected = "sits at slot")]
    fn materialized_fleet_rejects_misplaced_clients() {
        let data = dataset();
        let mut clients = Client::from_dataset(&data, 0);
        clients.swap_remove(0);
        let _ = MaterializedFleet::new(clients);
    }
}
