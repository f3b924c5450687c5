//! `Advisor::new` tunes on the calling thread while renumbering runs on a
//! scoped thread (on graphs of at least `MIN_WORK_PER_WORKER` adjacency
//! entries). Both stages are pure functions of the input graph, so the
//! advisor must equal a sequential reference that calls the tuner,
//! `renumber`, `Csr::relabel` and `partition_groups` directly, under every
//! strategy and renumber override, on either side of the size threshold.

use gnnadvisor_core::input::{extract, AggOrder};
use gnnadvisor_core::runtime::{Advisor, AdvisorConfig, TuneStrategy};
use gnnadvisor_core::tuning::model::decide;
use gnnadvisor_core::tuning::{
    aggregation_metrics, tune_two_tier, EstimatorConfig, RuntimeParams, TwoTierConfig,
};
use gnnadvisor_core::workload::group::{partition_groups, NeighborGroup};
use gnnadvisor_core::{CoreError, Result};
use gnnadvisor_gpu::GpuSpec;
use gnnadvisor_graph::generators::{community_graph, CommunityParams};
use gnnadvisor_graph::reorder::{renumber, RenumberConfig};
use gnnadvisor_graph::{Csr, Permutation};
use gnnadvisor_tensor::par::MIN_WORK_PER_WORKER;

const FEAT: usize = 96;
const HIDDEN: usize = 16;
const CLASSES: usize = 10;

/// Everything `Advisor::new` decides.
type Built = (RuntimeParams, Option<Permutation>, Csr, Vec<NeighborGroup>);

fn graph(num_nodes: usize, num_edges: usize) -> Csr {
    let params = CommunityParams {
        num_nodes,
        num_edges,
        mean_community: 60,
        community_size_cv: 0.5,
        inter_fraction: 0.1,
        shuffle_ids: true,
    };
    community_graph(&params, 9).expect("valid").0
}

fn small_search() -> TwoTierConfig {
    TwoTierConfig {
        estimator: EstimatorConfig {
            population: 8,
            iterations: 3,
            survivors: 4,
            ..Default::default()
        },
        top_k: 3,
        probes: 2,
    }
}

fn strategies() -> Vec<TuneStrategy> {
    let manual = |renumber| RuntimeParams {
        group_size: 12,
        threads_per_block: 128,
        dim_workers: 8,
        use_shared: true,
        renumber,
    };
    vec![
        TuneStrategy::TwoTier(small_search()),
        TuneStrategy::ModelOnly,
        TuneStrategy::Manual(manual(true)),
        TuneStrategy::Manual(manual(false)),
    ]
}

fn built(adv: &Advisor) -> Built {
    (
        *adv.params(),
        adv.permutation().cloned(),
        adv.graph().clone(),
        adv.groups().to_vec(),
    )
}

/// `g` renumbered and relabelled, sequentially.
fn renumbered(g: &Csr) -> (Csr, Permutation) {
    let r = renumber(g, &RenumberConfig::default()).expect("renumbers");
    (g.relabel(&r.permutation).expect("relabels"), r.permutation)
}

/// The sequential pipeline: tune, apply the override, take `renumbered`
/// when the parameters ask for it, partition.
fn reference(
    g: &Csr,
    renumbered: &(Csr, Permutation),
    strategy: &TuneStrategy,
    renumber_override: Option<bool>,
) -> Built {
    let spec = GpuSpec::quadro_p6000();
    let input = extract(g, FEAT, HIDDEN, CLASSES, AggOrder::UpdateThenAggregate);
    let mut params = match strategy {
        TuneStrategy::ModelOnly => decide(&input, &spec),
        TuneStrategy::TwoTier(cfg) => {
            let dim = input.aggregation_dim();
            tune_two_tier(&input, &spec, cfg, |p, e| aggregation_metrics(g, dim, p, e)).best
        }
        TuneStrategy::Manual(p) => *p,
    };
    if let Some(r) = renumber_override {
        params.renumber = r;
    }
    let (graph, permutation) = if params.renumber {
        (renumbered.0.clone(), Some(renumbered.1.clone()))
    } else {
        (g.clone(), None)
    };
    let groups = partition_groups(&graph, params.group_size).expect("partitions");
    (params, permutation, graph, groups)
}

fn advisor(g: &Csr, tune: TuneStrategy, renumber: Option<bool>) -> Result<Advisor> {
    Advisor::new(
        g,
        FEAT,
        HIDDEN,
        CLASSES,
        AggOrder::UpdateThenAggregate,
        AdvisorConfig {
            tune,
            renumber,
            ..Default::default()
        },
    )
}

fn assert_matches_reference(g: &Csr) {
    let renumbered = renumbered(g);
    for strategy in strategies() {
        for renumber_override in [None, Some(true), Some(false)] {
            let adv = advisor(g, strategy.clone(), renumber_override).expect("builds");
            let want = reference(g, &renumbered, &strategy, renumber_override);
            let got = built(&adv);
            let case = format!("{strategy:?}, renumber {renumber_override:?}");
            assert_eq!(got.0, want.0, "{case}: params");
            assert_eq!(got.1, want.1, "{case}: permutation");
            assert!(got.2 == want.2, "{case}: graph");
            assert!(got.3 == want.3, "{case}: groups");
            assert_eq!(
                adv.permutation().is_some(),
                adv.params().renumber,
                "{case}: a renumbered graph exactly when the params renumber"
            );
        }
    }
}

#[test]
fn overlapped_advisor_equals_the_sequential_pipeline() {
    let g = graph(10_000, 340_000);
    assert!(
        g.num_edges() >= MIN_WORK_PER_WORKER,
        "{} entries: the graph must be large enough to renumber on a thread",
        g.num_edges()
    );
    assert_matches_reference(&g);
}

#[test]
fn small_graphs_renumber_after_tuning_with_the_same_result() {
    let g = graph(2_000, 40_000);
    assert!(g.num_edges() < MIN_WORK_PER_WORKER);
    assert_matches_reference(&g);
}

/// Invalid manual parameters fail with the validation error, whether or
/// not a renumbering thread ran beside the check.
#[test]
fn invalid_manual_params_fail_with_the_validation_error() {
    let bad = RuntimeParams {
        threads_per_block: 100,
        ..Default::default()
    };
    let want = match bad.validate() {
        Err(CoreError::InvalidParams { reason }) => reason,
        other => panic!("expected InvalidParams, got {other:?}"),
    };
    for g in [graph(10_000, 340_000), graph(2_000, 40_000)] {
        for renumber_override in [None, Some(true), Some(false)] {
            match advisor(&g, TuneStrategy::Manual(bad), renumber_override) {
                Err(CoreError::InvalidParams { reason }) => assert_eq!(reason, want),
                Err(other) => panic!("expected InvalidParams, got {other}"),
                Ok(_) => panic!("invalid params must not build"),
            }
        }
    }
}
