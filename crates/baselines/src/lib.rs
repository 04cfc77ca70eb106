//! The six baseline FL indoor-localization frameworks the paper compares
//! SAFELOC against (§II, §V).
//!
//! | Framework | Global model | Aggregation | Defense |
//! |---|---|---|---|
//! | [`fedloc()`] | 3-layer DNN | FedAvg | none |
//! | [`fedhil()`] | 3-layer DNN | selective per-tensor | outlier tensors dropped |
//! | [`krum()`] | small MLP | Krum selection | distance-based LM filtering |
//! | [`fedcc()`] | DNN | 2-means clustering | minority cluster dropped |
//! | [`fedls()`] | large DNN + server AE | latent-space filtering | anomalous updates dropped |
//! | [`Onlad`] | DNN + on-device AE | FedAvg | poisoned *samples* dropped on device |
//!
//! The first five differ only in their name, layer widths and defense
//! pipeline, so each is a constructor returning a configured
//! [`SequentialFlServer`](safeloc_fl::SequentialFlServer). ONLAD trains a
//! second, on-device model and is its own type. All implement
//! [`safeloc_fl::Framework`] so the benches treat them interchangeably
//! with SAFELOC. Layer widths (see
//! [`arch`]) are chosen to preserve the paper's Table I parameter-count
//! ordering (SAFELOC < FEDCC < FEDHIL < ONLAD < FEDLOC < FEDLS); the
//! originals' exact widths are not published for the localization setting.
//!
//! # Example
//!
//! ```
//! use safeloc_baselines::fedloc;
//! use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
//! use safeloc_fl::{Client, Framework, RoundPlan, ServerConfig};
//!
//! let data = BuildingDataset::generate(Building::tiny(2), &DatasetConfig::tiny(), 2);
//! let mut f = fedloc(data.building.num_aps(), data.building.num_rps(), ServerConfig::tiny());
//! f.pretrain(&data.server_train);
//! let mut clients = Client::from_dataset(&data, 0);
//! let plan = RoundPlan::full(clients.len());
//! let report = f.run_round(&mut clients, &plan);
//! assert_eq!(f.name(), "FEDLOC");
//! assert_eq!(report.accepted(), clients.len());
//! ```

pub mod arch;
pub mod onlad;
pub mod sequential;

pub use onlad::Onlad;
pub use sequential::{fedcc, fedhil, fedloc, fedls, krum};

use safeloc_fl::{Framework, ServerConfig};

/// Builds every baseline for a building, in the paper's comparison order.
pub fn all_baselines(
    input_dim: usize,
    n_classes: usize,
    cfg: ServerConfig,
) -> Vec<Box<dyn Framework>> {
    vec![
        Box::new(Onlad::new(input_dim, n_classes, cfg)),
        Box::new(fedls(input_dim, n_classes, cfg)),
        Box::new(fedcc(input_dim, n_classes, cfg)),
        Box::new(fedhil(input_dim, n_classes, cfg)),
        Box::new(fedloc(input_dim, n_classes, cfg)),
    ]
}
