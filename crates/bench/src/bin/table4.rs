//! Regenerate Table 4: the four demonstration fixes — recipe applied,
//! performance relative to the developers' fix, and fix size.
//!
//! Pass `--full` for benchmark-scale runs (the default is a quick pass)
//! and `--json` for a machine-readable version (table rows plus the full
//! per-variant case comparisons).

use txfix_bench::{cases, Scale};
use txfix_core::json::{Json, ToJson};
use txfix_core::TextTable;

fn main() {
    let scale = if std::env::args().any(|a| a == "--full") { Scale::Full } else { Scale::Quick };
    let json = std::env::args().any(|a| a == "--json");
    let cases = cases(scale);

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
    if json {
        let doc = Json::obj([
            ("table", t.to_json_value()),
            ("cases", Json::list(cases.iter().map(ToJson::to_json_value))),
        ]);
        println!("{}", doc.to_json());
        return;
    }
    print!("{t}");
    println!("\nPer-variant detail:\n");
    for c in &cases {
        println!("{}", c.render());
    }
}
