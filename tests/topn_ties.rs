//! Top-N tie order: AP's bounded top-N must keep rows with equal sort keys
//! in input order, so that it returns exactly the prefix of the stable sort
//! that TP's Sort + Limit returns.
//!
//! The generator's unindexed top-N templates sort on keys that are not
//! unique (`o_totalprice`, `c_acctbal`, `l_extendedprice`). When equal keys
//! straddle the LIMIT/OFFSET boundary, an engine that keeps an arbitrary one
//! of the tied rows returns a different row set from the other engine, and
//! the dual run's agreement check fails the request with `EngineMismatch`.
//! At TPC-H scale 0.01 that happened for seeds 14 and 28 of the range below
//! (both on the lineitem template); the agreement check itself stays exactly
//! as strict as before.

use qpe_core::explainer::{Explainer, PipelineConfig};
use qpe_core::workload::{WorkloadConfig, WorkloadGenerator};
use qpe_htap::tpch::TpchConfig;
use qpe_treecnn::train::TrainerConfig;

/// The tie-prone ORDER BY clauses, exactly as the generator writes them
/// (no extra key that would make the order total).
const TIE_PRONE: [&str; 3] = [
    "ORDER BY o_totalprice DESC",
    "ORDER BY c_acctbal DESC",
    "ORDER BY l_extendedprice DESC",
];

/// Generator seeds swept; top-N queries drawn per seed.
const SEEDS: std::ops::Range<u64> = 10..30;
const PER_SEED: usize = 20;

#[test]
fn tie_prone_top_n_templates_never_mismatch() {
    // Scale 0.01: lineitem's 60k rows are what make boundary ties occur.
    let explainer = Explainer::build(PipelineConfig {
        tpch: TpchConfig::with_scale(0.01),
        n_train: 12,
        kb_size: 6,
        trainer: TrainerConfig {
            epochs: 2,
            ..TrainerConfig::default()
        },
        ..Default::default()
    })
    .expect("pipeline builds");
    let mut explained = 0;
    for seed in SEEDS {
        let mut gen = WorkloadGenerator::new(WorkloadConfig {
            seed,
            top_n_fraction: 1.0,
        });
        for sql in gen.generate(PER_SEED) {
            if !TIE_PRONE.iter().any(|k| sql.contains(k)) {
                continue;
            }
            if let Err(e) = explainer.explain_sql(&sql, &[]) {
                panic!("seed {seed}: {sql}: {e}");
            }
            explained += 1;
        }
    }
    assert!(
        explained >= 200,
        "only {explained} tie-prone queries explained"
    );
}
