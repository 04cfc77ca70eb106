//! The set-up every workload pays before it measures: the Building-1
//! dataset, the pretrained SAFELOC template and its paper fleet, the
//! pre-encoded wire frames of one server-round cohort, and the serving
//! registry with the building default plus one HetNN variant per phone.

use safeloc::{SafeLoc, SafeLocConfig};
use safeloc_attacks::{Attack, PoisonInjector};
use safeloc_bench::harness::{scenario_fleet, Scenario};
use safeloc_dataset::{Building, BuildingDataset, DatasetConfig, DeviceCatalog};
use safeloc_fl::{
    Client, ClientUpdate, DeltaCompressor, DeltaRepr, DeltaSpec, Framework, RoundPlan,
};
use safeloc_nn::{Activation, Adam, HasParams, Matrix, NamedParams, Sequential, TrainConfig};
use safeloc_serve::{request_pool, LocalizeRequest, ModelKey, ModelRegistry};
use safeloc_wire::{DeltaUpdateFrame, Frame, UpdateFrame};
use std::sync::Arc;

/// Rounds in one SAFELOC session of the paper-rounds phase.
pub const ROUNDS_PER_SESSION: usize = 10;

/// Device string of the serving traffic the catalog has never seen; it
/// routes to the building default, the entry hot swaps replace.
pub const UNREGISTERED_DEVICE: &str = "Unregistered Phone";

/// One server-round cohort: the updates `SafeLoc::collect_updates`
/// trained once, and the same updates encoded as wire frames.
pub struct Cohort {
    /// The global model the updates were trained from.
    pub gm: NamedParams,
    /// The updates in client order (odd clients carry a q8 delta).
    pub updates: Vec<ClientUpdate>,
    /// Full wire bytes per update: `Update` for dense, `UpdateDelta` for q8.
    pub frames: Vec<Vec<u8>>,
    /// Whether client `i` is a boosted label-flip attacker.
    pub malicious: Vec<bool>,
    /// Krum's assumed Byzantine count: the number of attackers.
    pub krum_f: usize,
}

/// One scenario instance: a Building-1 dataset, SAFELOC pretrained on it
/// and its paper fleet (HTC U11 runs a boosted FGSM backdoor).
pub struct Instance {
    pub data: BuildingDataset,
    pub template: SafeLoc,
    pub fleet: Vec<Client>,
}

impl Instance {
    fn build(seed: u64) -> Self {
        let data = BuildingDataset::generate(Building::paper(1), &DatasetConfig::paper(), seed);
        // Short pretraining keeps the repeated set-ups cheap.
        let cfg = SafeLocConfig {
            pretrain_epochs: 40,
            ..SafeLocConfig::default_scale(seed)
        };
        let mut template = SafeLoc::new(data.building.num_aps(), data.building.num_rps(), cfg);
        template.pretrain(&data.server_train);
        let scenario = Scenario::paper(Some(Attack::fgsm(0.5)), ROUNDS_PER_SESSION, seed);
        let fleet = scenario_fleet(&data, &scenario);
        Self {
            data,
            template,
            fleet,
        }
    }
}

/// Everything a workload needs before its first measured operation.
pub struct Setup {
    /// Independent instances drawn from the workload seed. Round times and
    /// errors depend on the data (a de-noised attacker feed can slow its
    /// training several-fold), so a run pools several instances.
    pub instances: Vec<Instance>,
    /// The server-round cohort, trained from the first instance.
    pub cohort: Cohort,
    /// Serving registry over the first instance: the building default (the
    /// template's classifier) plus one fine-tuned variant per phone.
    pub registry: Arc<ModelRegistry>,
    pub catalog: DeviceCatalog,
    /// Serving requests, including unregistered-device copies.
    pub pool: Vec<LocalizeRequest>,
    /// Serving architecture the fused classifier path is loaded into.
    pub classifier: Sequential,
    /// Content digest of the templates and the cohort frames, to check that
    /// repeated set-ups build the same inputs.
    pub digest: u64,
}

impl Setup {
    /// Builds `instances` scenario instances from `seed` and a server-round
    /// cohort of `cohort_size` clients.
    pub fn build(seed: u64, instances: usize, cohort_size: usize) -> Self {
        let instances: Vec<Instance> = (0..instances as u64)
            .map(|i| Instance::build(sub_seed(seed, i)))
            .collect();
        let first = &instances[0];
        let (data, template) = (&first.data, &first.template);
        let cohort = build_cohort(data, template, cohort_size, sub_seed(seed, u64::MAX));

        let cfg = template.config();
        let mut classifier_dims = vec![data.building.num_aps()];
        classifier_dims.extend(&cfg.encoder_dims);
        classifier_dims.push(data.building.num_rps());
        let classifier = Sequential::mlp(&classifier_dims, Activation::Relu, 0);
        let registry = Arc::new(ModelRegistry::new());
        let default_view = classifier_view(&classifier, &template.global_params());
        registry.publish(
            ModelKey::default_for(data.building.id),
            default_view.clone(),
            Some(data.building.clone()),
        );
        for (device, local) in data.devices.iter().zip(&data.client_local) {
            let mut variant = default_view.clone();
            variant.fit_classifier(
                &local.x,
                &local.labels,
                &mut Adam::new(1e-4),
                &TrainConfig::new(1, 16, seed),
            );
            registry.publish(
                ModelKey::new(data.building.id, &device.name),
                variant,
                Some(data.building.clone()),
            );
        }
        let mut pool = request_pool(data);
        let unregistered: Vec<LocalizeRequest> = pool
            .iter()
            .step_by(3)
            .map(|r| LocalizeRequest::new(r.building, UNREGISTERED_DEVICE, r.rss_dbm.clone()))
            .collect();
        pool.extend(unregistered);

        let mut digest = Fnv::default();
        for instance in &instances {
            digest.floats(instance.template.global_params().flatten().as_slice());
        }
        for frame in &cohort.frames {
            digest.bytes(frame);
        }
        Self {
            catalog: DeviceCatalog::new(data.devices.clone()),
            cohort,
            registry,
            pool,
            classifier,
            digest: digest.0,
            instances,
        }
    }

    /// The first instance: the one the server rounds and serving use.
    pub fn first(&self) -> &Instance {
        &self.instances[0]
    }

    /// The registry key hot swaps and server rounds publish to.
    pub fn default_key(&self) -> ModelKey {
        ModelKey::default_for(self.first().data.building.id)
    }
}

/// Seed of instance `i`: a SplitMix64 step, so neighbouring workload seeds
/// give unrelated instances.
fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Trains one cohort of `n` clients on Building 1 and encodes the wire
/// frames. Client `i` holds phone `i mod 6`'s local split under its own
/// seed stream; every 5th client is a label-flip attacker boosted by
/// `n / attackers` (model replacement shared across colluders), and odd
/// clients compress their delta to q8.
fn build_cohort(data: &BuildingDataset, template: &SafeLoc, n: usize, seed: u64) -> Cohort {
    let malicious: Vec<bool> = (0..n).map(|i| i % 5 == 0).collect();
    let attackers = malicious.iter().filter(|&&m| m).count().max(1);
    let boost = n as f32 / attackers as f32;
    let mut clients: Vec<Client> = (0..n)
        .map(|i| {
            let mut c = Client::single_from_dataset(data, seed, i % data.num_clients());
            c.id = i;
            c.seed = seed ^ 0xC0_0000 ^ ((i as u64 + 1) << 32);
            if i % 2 == 1 {
                c.compressor = Some(DeltaCompressor::new(DeltaSpec::QuantizedI8));
            }
            if malicious[i] {
                let stream = seed ^ ((i as u64 + 1) << 24);
                c.injector =
                    Some(PoisonInjector::new(Attack::label_flip(0.8), stream).with_boost(boost));
            }
            c
        })
        .collect();
    let updates = template.collect_updates(&mut clients, &RoundPlan::full(n));
    let frames = updates
        .iter()
        .zip(&clients)
        .map(|(u, c)| {
            let frame = match &u.repr {
                DeltaRepr::Dense => Frame::Update(UpdateFrame {
                    client_id: u.client_id as u64,
                    round: 0,
                    building: data.building.id as u32,
                    device_class: c.device_name.clone(),
                    num_samples: u.num_samples as u64,
                    params: u.params.clone(),
                }),
                repr => Frame::UpdateDelta(DeltaUpdateFrame {
                    client_id: u.client_id as u64,
                    round: 0,
                    building: data.building.id as u32,
                    device_class: c.device_name.clone(),
                    num_samples: u.num_samples as u64,
                    repr: repr.clone(),
                }),
            };
            frame.encode()
        })
        .collect();
    Cohort {
        gm: template.global_params(),
        updates,
        frames,
        malicious,
        krum_f: attackers,
    }
}

/// The fused network's classification path (encoder layers, then the
/// classifier head) loaded into the serving architecture `arch`. The two
/// compute the same function: ReLU after every encoder layer, identity on
/// the head.
pub fn classifier_view(arch: &Sequential, fused: &NamedParams) -> Sequential {
    let mut tensors: Vec<Matrix> = fused
        .iter()
        .filter(|(name, _)| name.starts_with("enc"))
        .map(|(_, t)| t.clone())
        .collect();
    for head in ["cls.w", "cls.b"] {
        tensors.push(
            fused
                .get(head)
                .expect("the fused network has a classifier head")
                .clone(),
        );
    }
    let named = tensors
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let suffix = if i % 2 == 0 { "w" } else { "b" };
            (format!("layer{}.{suffix}", i / 2), t)
        })
        .collect();
    let mut view = arch.clone();
    view.load(&NamedParams::new(named))
        .expect("the serving architecture mirrors the fused classification path");
    view
}

/// 64-bit FNV-1a, for content digests.
#[derive(Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn floats(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}
