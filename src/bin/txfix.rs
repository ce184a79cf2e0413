//! The `txfix` command-line tool: explore the study corpus, run bug
//! scenarios, and regenerate the paper's tables.
//!
//! ```sh
//! cargo run --bin txfix -- help
//! cargo run --bin txfix -- tables
//! cargo run --bin txfix -- bugs --unfixable
//! cargo run --bin txfix -- show Mozilla#54743
//! cargo run --bin txfix -- scenario apache_i --variant buggy
//! cargo run --bin txfix -- analyze av_stats_race
//! cargo run --bin txfix -- lint --all
//! ```
//!
//! Every verb is a row of the dispatch table in [`txfix::cli`]; the verbs
//! that select scenarios all run behind the shared
//! `txfix::recipes::sweep::run_sweep` frame.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    txfix::cli::run(&args)
}
