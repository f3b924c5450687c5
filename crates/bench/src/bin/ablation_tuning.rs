//! Ablation: how much does each tuning stage buy?
//!
//! Compares, per Type III dataset: (1) untuned defaults, (2) the
//! analytical Modeling decision (Eq. 2–4 grid), (3) the evolutionary
//! Estimating search on the analytical fitness, and (4) the profile-guided
//! Estimating loop whose fitness is the simulated kernel itself (the full
//! Figure 1 optimization loop). Also ablates each §5/§6 optimization from
//! the tuned configuration.

#![deny(unsafe_code)]

use gnnadvisor_bench::report::Table;
use gnnadvisor_bench::runner::{build_advisor_manual, run_forward, ExperimentConfig, ModelKind};
use gnnadvisor_core::input::extract;
use gnnadvisor_core::runtime::{Advisor, AdvisorConfig, TuneStrategy};
use gnnadvisor_core::tuning::estimator::{Estimator, EstimatorConfig};
use gnnadvisor_core::tuning::model;
use gnnadvisor_core::{Framework, RuntimeParams};
use gnnadvisor_datasets::TYPE_III;

fn time_with(
    cfg: &ExperimentConfig,
    ds: &gnnadvisor_datasets::Dataset,
    params: RuntimeParams,
) -> f64 {
    let advisor =
        build_advisor_manual(ds, ModelKind::Gcn, &cfg.spec, params).expect("advisor builds");
    run_forward(
        Framework::GnnAdvisor,
        ModelKind::Gcn,
        ds,
        cfg,
        Some(&advisor),
    )
    .expect("runs")
    .total_ms()
}

fn main() {
    let cfg = ExperimentConfig::default();
    println!(
        "Tuning ablation on Type III, GCN (scale {}).\nAll times simulated ms; lower is better.\n",
        cfg.scale
    );

    let mut t = Table::new(&[
        "Dataset",
        "defaults",
        "modeling (Eq.2-4)",
        "estimating",
        "profile-guided",
        "no renumber",
        "no shared",
        "no grouping (gs=1024)",
    ]);
    for spec in TYPE_III {
        let ds = spec.generate(cfg.scale).expect("dataset generates");
        let input = extract(
            &ds.graph,
            ds.feat_dim,
            ModelKind::Gcn.hidden_dim(),
            ds.num_classes,
            ModelKind::Gcn.agg_order(),
        );

        let defaults = RuntimeParams::default();
        let modeled = model::decide(&input, &cfg.spec);
        let estimated =
            Estimator::new(input.clone(), cfg.spec.clone(), EstimatorConfig::default()).tune();
        // Profile-guided: fitness is the actual simulated forward pass.
        // Every candidate advisor is handed a clone of the estimator's
        // shared engine, so the whole search reuses one RunContext.
        let profiled = Estimator::new(
            input.clone(),
            cfg.spec.clone(),
            EstimatorConfig {
                population: 12,
                iterations: 6,
                ..Default::default()
            },
        )
        .tune_profiled(|p, engine| {
            Advisor::new(
                &ds.graph,
                ds.feat_dim,
                ModelKind::Gcn.hidden_dim(),
                ds.num_classes,
                ModelKind::Gcn.agg_order(),
                AdvisorConfig {
                    spec: cfg.spec.clone(),
                    tune: TuneStrategy::Manual(RuntimeParams {
                        renumber: false,
                        ..*p
                    }),
                    engine: Some(engine.clone()),
                    ..Default::default()
                },
            )
            .and_then(|a| a.aggregate(ModelKind::Gcn.hidden_dim()))
            .map(|m| m.time_ms)
            .unwrap_or(f64::INFINITY)
        });

        let tuned = profiled;
        t.row(&[
            spec.name.to_string(),
            format!("{:.4}", time_with(&cfg, &ds, defaults)),
            format!("{:.4}", time_with(&cfg, &ds, modeled)),
            format!("{:.4}", time_with(&cfg, &ds, estimated)),
            format!("{:.4}", time_with(&cfg, &ds, tuned)),
            format!(
                "{:.4}",
                time_with(
                    &cfg,
                    &ds,
                    RuntimeParams {
                        renumber: false,
                        ..tuned
                    }
                )
            ),
            format!(
                "{:.4}",
                time_with(
                    &cfg,
                    &ds,
                    RuntimeParams {
                        use_shared: false,
                        ..tuned
                    }
                )
            ),
            format!(
                "{:.4}",
                time_with(
                    &cfg,
                    &ds,
                    RuntimeParams {
                        group_size: 1024,
                        ..tuned
                    }
                )
            ),
        ]);
    }
    t.print();
}
