//! Regenerate Table 4: the four demonstration fixes — recipe applied,
//! performance relative to the developers' fix, and fix size — followed
//! by the per-variant detail.

use txfix_bench::cases;
use txfix_core::TextTable;

fn main() {
    let cases = cases();

    let mut t = TextTable::new(
        "Table 4. Bugs and corresponding fix recipes applied for demonstration purposes",
        &["Bug ID", "Cause", "Characteristics", "Fix", "Paper perf.", "Measured perf.", "LOC"],
    );
    for c in &cases {
        t.row(&[
            c.case.to_string(),
            c.cause.to_string(),
            c.characteristics.to_string(),
            c.recipe.to_string(),
            format!("{:.1}%", c.paper_relative() * 100.0),
            format!("{:.1}%", c.measured_relative() * 100.0),
            c.loc.to_string(),
        ]);
    }
    print!("{t}");
    println!("\nPer-variant detail:\n");
    for c in &cases {
        println!("{}", c.render());
    }
}
