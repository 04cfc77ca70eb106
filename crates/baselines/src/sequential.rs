//! The five baselines that are one [`SequentialFlServer`] each, differing
//! only in name, layer widths ([`crate::arch`]) and defense pipeline.

use crate::arch::{fedcc_dims, fedhil_dims, fedloc_dims, fedls_dims, krum_dims};
use safeloc_fl::{
    ClusterAggregator, DefensePipeline, SelectiveAggregator, SequentialFlServer, ServerConfig,
};

/// FEDLOC (Yin et al., IEEE JSP 2020): a three-layer DNN aggregated with
/// FedAvg and no defense — the paper's most vulnerable baseline (highest
/// errors in Figs. 1 and 6).
pub fn fedloc(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> SequentialFlServer {
    SequentialFlServer::named(
        "FEDLOC",
        &fedloc_dims(input_dim, n_classes),
        Box::new(DefensePipeline::fedavg()),
        cfg,
    )
}

/// FEDHIL (Gufran et al., ACM TECS 2023): heterogeneity-resilient FL with
/// selective weight aggregation — per-tensor outlier rejection against the
/// median client deviation.
///
/// Fig. 1 shows it more resilient than FEDLOC to backdoors but *worse*
/// under label flipping: flipped-label LMs deviate on most tensors at
/// once, so the median itself shifts and poisoned tensors get accepted.
pub fn fedhil(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> SequentialFlServer {
    SequentialFlServer::named(
        "FEDHIL",
        &fedhil_dims(input_dim, n_classes),
        Box::new(DefensePipeline::selective(
            SelectiveAggregator::default().aggregate_fraction,
        )),
        cfg,
    )
}

/// KRUM (El Mhamdi et al. 2018): a simple MLP global model whose next
/// version is the single LM closest to its peers, assuming one Byzantine
/// client. Robust to isolated outliers but discards the collaborative
/// signal — weak device-heterogeneity resilience.
pub fn krum(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> SequentialFlServer {
    SequentialFlServer::named(
        "KRUM",
        &krum_dims(input_dim, n_classes),
        Box::new(DefensePipeline::krum(1)),
        cfg,
    )
}

/// FEDCC (Jeong et al. 2022): clusters client updates by gradient
/// similarity and aggregates only the majority cluster.
///
/// Resilient to label flipping (flipped LMs form their own cluster) but —
/// per the paper's Fig. 6 analysis — weak against strong backdoors, where
/// honest heterogeneous clients scatter enough that legitimate updates
/// land in the discarded cluster.
pub fn fedcc(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> SequentialFlServer {
    SequentialFlServer::named(
        "FEDCC",
        &fedcc_dims(input_dim, n_classes),
        Box::new(DefensePipeline::cluster(
            ClusterAggregator::default().separation_threshold,
        )),
        cfg,
    )
}

/// FEDLS (Luong et al. 2023): every round, the server projects the
/// received update deltas into a latent space, fits an autoencoder, and
/// drops updates whose reconstruction error is anomalous before FedAvg.
///
/// The "resource-intensive" baseline of Table I: it deploys the largest
/// localizer and runs a second model server-side. Strong on label
/// flipping; weaker on backdoors whose LM-space footprint hides inside the
/// heterogeneity scatter (Fig. 6).
pub fn fedls(input_dim: usize, n_classes: usize, cfg: ServerConfig) -> SequentialFlServer {
    SequentialFlServer::named(
        "FEDLS",
        &fedls_dims(input_dim, n_classes),
        Box::new(DefensePipeline::latent(cfg.seed)),
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use safeloc_dataset::{Building, BuildingDataset, DatasetConfig};
    use safeloc_fl::{Client, Framework, RoundPlan};

    type Constructor = fn(usize, usize, ServerConfig) -> SequentialFlServer;
    type Dims = fn(usize, usize) -> Vec<usize>;

    /// One row per baseline: constructor, printed name, widths, and the
    /// accuracy floors on the survey split after pretraining and after one
    /// full round (`max_drop`: how far the round may lower accuracy).
    struct Row {
        build: Constructor,
        name: &'static str,
        dims: Dims,
        pretrained: Option<f32>,
        after_round: Option<f32>,
        max_drop: Option<f32>,
    }

    const ROWS: [Row; 5] = [
        Row {
            build: fedloc,
            name: "FEDLOC",
            dims: fedloc_dims,
            pretrained: Some(0.7),
            after_round: None,
            max_drop: None,
        },
        Row {
            build: fedhil,
            name: "FEDHIL",
            dims: fedhil_dims,
            pretrained: Some(0.7),
            after_round: None,
            max_drop: Some(0.3),
        },
        Row {
            build: krum,
            name: "KRUM",
            dims: krum_dims,
            pretrained: None,
            after_round: Some(0.4),
            max_drop: None,
        },
        Row {
            build: fedcc,
            name: "FEDCC",
            dims: fedcc_dims,
            pretrained: None,
            after_round: Some(0.5),
            max_drop: None,
        },
        Row {
            build: fedls,
            name: "FEDLS",
            dims: fedls_dims,
            pretrained: None,
            after_round: Some(0.5),
            max_drop: None,
        },
    ];

    #[test]
    fn every_baseline_names_itself_sizes_to_its_dims_and_trains() {
        let data = BuildingDataset::generate(Building::tiny(1), &DatasetConfig::tiny(), 1);
        let (aps, rps) = (data.building.num_aps(), data.building.num_rps());
        let (x, labels) = (&data.server_train.x, &data.server_train.labels);
        let mut sizes = Vec::new();
        for row in &ROWS {
            let mut f = (row.build)(aps, rps, ServerConfig::tiny());
            assert_eq!(f.name(), row.name);

            let expect: usize = (row.dims)(50, 10)
                .windows(2)
                .map(|w| w[0] * w[1] + w[1])
                .sum();
            assert_eq!(
                (row.build)(50, 10, ServerConfig::tiny()).num_params(),
                expect,
                "{}: parameter count",
                row.name
            );

            f.pretrain(&data.server_train);
            let before = f.accuracy(x, labels);
            if let Some(floor) = row.pretrained {
                assert!(before > floor, "{}: pretrain accuracy {before}", row.name);
            }
            let mut clients = Client::from_dataset(&data, 0);
            let plan = RoundPlan::full(clients.len());
            f.run_round(&mut clients, &plan);
            let after = f.accuracy(x, labels);
            if let Some(floor) = row.after_round {
                assert!(
                    after > floor,
                    "{}: accuracy after a round {after}",
                    row.name
                );
            }
            if let Some(drop) = row.max_drop {
                assert!(after > before - drop, "{}: {before} -> {after}", row.name);
            }
            sizes.push((
                row.name,
                (row.build)(100, 20, ServerConfig::tiny()).num_params(),
            ));
        }
        let smallest = sizes.iter().min_by_key(|(_, p)| *p).unwrap();
        let largest = sizes.iter().max_by_key(|(_, p)| *p).unwrap();
        assert_eq!(
            smallest.0, "KRUM",
            "KRUM is the smallest baseline: {sizes:?}"
        );
        assert_eq!(
            largest.0, "FEDLS",
            "FEDLS is the largest baseline: {sizes:?}"
        );
    }
}
