//! Design-space exploration for the CADT vendor.
//!
//! Uses the paper's analysis toolkit to answer three design questions:
//!
//! 1. *Where* should detection improvements go? (§6.2 leverage ranking and
//!    a greedy improvement-budget allocation.)
//! 2. *How far* can machine improvement take the system? (§6.1 lower bound
//!    and the Fig. 4 lines.)
//! 3. *Which operating point* should the detector ship with, trading false
//!    negatives against false positives under a recall-rate cap? (§7.)
//!
//! ```text
//! cargo run --example design_tradeoffs
//! ```

use hmdiv::core::design::{allocate_improvement_budget_pruned, rank_improvement_targets};
use hmdiv::core::importance::{machine_response_lines, system_lower_bound};
use hmdiv::core::tradeoff::{MachineRoc, TradeoffStudy, TwoSidedModel};
use hmdiv::core::{paper, ClassParams, DemandProfile, ModelParams, SequentialModel};
use hmdiv::prob::Probability;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = paper::example_model()?;
    let field = paper::field_profile()?;

    println!("== 1. where should improvement effort go? ==");
    for lever in rank_improvement_targets(&model, &field)? {
        println!(
            "class {:<10} p(x)={:.2} t(x)={:.2} PMf(x)={:.2} -> eliminating machine failure buys {:.4}",
            lever.class.name(),
            lever.weight,
            lever.coherence_index,
            lever.p_mf,
            lever.max_benefit
        );
    }
    let (alloc, _) = allocate_improvement_budget_pruned(&model, &field, 4, 2.0, 1)?;
    println!("greedy budget (4 halvings of PMf): {:?}", alloc.allocation);
    println!("field failure {:.4} -> {:.4}\n", alloc.before, alloc.after);

    println!("== 2. how far can machine improvement take the system? ==");
    for line in machine_response_lines(&model) {
        println!(
            "class {:<10} PHf(x) = {:.2} + PMf * {:.2}   (floor {:.2})",
            line.class().name(),
            line.lower_bound().value(),
            line.coherence_index(),
            line.lower_bound().value()
        );
    }
    println!(
        "system floor under the field profile: {:.4} (current {:.4})\n",
        system_lower_bound(&model, &field)?.value(),
        model.system_failure(&field)?.value()
    );

    println!("== 3. which operating point should ship? ==");
    let p = |v: f64| Probability::new(v).expect("literal probability");
    let fp_model = SequentialModel::new(
        ModelParams::builder()
            .class("clear", ClassParams::new(p(0.1), p(0.02), p(0.08)))
            .class("ambiguous", ClassParams::new(p(0.3), p(0.15), p(0.4)))
            .build()?,
    );
    let study = TradeoffStudy {
        base: TwoSidedModel {
            false_negative: model,
            false_positive: fp_model,
        },
        roc: MachineRoc::builder()
            .cancer_class("easy", 0.15)
            .cancer_class("difficult", 0.6)
            .normal_class("clear", 0.3)
            .normal_class("ambiguous", 0.9)
            .build()?,
        cancer_profile: field,
        normal_profile: DemandProfile::builder()
            .class("clear", 0.85)
            .class("ambiguous", 0.15)
            .build()?,
        prevalence: p(0.008),
    };
    println!(
        "{:>6} {:>10} {:>10} {:>12}",
        "tau", "FN", "FP", "recall rate"
    );
    for point in study.sweep(6)? {
        println!(
            "{:>6.2} {:>10.4} {:>10.4} {:>12.4}",
            point.tau,
            point.fn_rate.value(),
            point.fp_rate.value(),
            point.recall_rate.value()
        );
    }
    for cap in [0.06, 0.08, 0.10] {
        match study.best_operating_point(201, 500.0, 1.0, Some(p(cap)))? {
            Some(best) => println!(
                "recall cap {:.0}% -> tau {:.2}, FN {:.4}, FP {:.4}",
                cap * 100.0,
                best.tau,
                best.fn_rate.value(),
                best.fp_rate.value()
            ),
            None => println!("recall cap {:.0}% -> infeasible", cap * 100.0),
        }
    }
    Ok(())
}
