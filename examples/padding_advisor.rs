//! Model-driven padding advisor: detect set-conflict thrashing in a
//! stencil and cure it by shifting base addresses, validating the plan
//! against the simulator.
//!
//! ```text
//! cargo run --example padding_advisor --release
//! ```

use cme::opt::{search_padding, PaddingOptions};
use cme::prelude::*;
use cme_ir::{LinExpr, SNode, SRef};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A classic pathology: power-of-two arrays in a three-array stencil.
    // With 256×8B = 2KB arrays on a 2KB direct-mapped cache, A(i), B(i)
    // and C(i) collide in the same set on every iteration.
    let n = 256i64;
    let mut b = ProgramBuilder::new("thrash");
    b.array("A", &[n], 8);
    b.array("B", &[n], 8);
    b.array("C", &[n], 8);
    let i = LinExpr::var("I");
    b.push(SNode::loop_(
        "I",
        2,
        n - 1,
        vec![SNode::assign(
            SRef::new("C", vec![i.clone()]),
            vec![
                SRef::new("A", vec![i.offset(-1)]),
                SRef::new("A", vec![i.offset(1)]),
                SRef::new("B", vec![i.clone()]),
            ],
        )],
    ));
    let program = b.build()?;
    let cache = CacheConfig::new(2048, 32, 1)?;

    let before = Simulator::new(cache).run(&program).miss_ratio();
    println!(
        "baseline layout:   {:5.1}% misses (simulated)",
        100.0 * before
    );

    let plan = search_padding(&program, cache, &PaddingOptions::default());
    println!(
        "advisor: paddings {:?} bytes predicted {:5.1}% → {:5.1}% ({} model evaluations)",
        plan.padding,
        100.0 * plan.baseline_ratio,
        100.0 * plan.padded_ratio,
        plan.trials.len()
    );

    let after = Simulator::new(cache)
        .run(&plan.apply(&program))
        .miss_ratio();
    println!(
        "padded layout:     {:5.1}% misses (simulated)",
        100.0 * after
    );

    assert!(
        after < before / 2.0,
        "padding should at least halve the miss ratio"
    );
    Ok(())
}
