//! Table assembly: re-derive the paper's Tables 1–3 (and the headline
//! aggregates) from a bug dataset.

use crate::analysis::{analyze, Analysis, Recipe};
use crate::bug::{App, BugKind, BugRecord, Difficulty, MissingSync};
use crate::difficulty::{preference, tm_difficulty, Preference};
use std::fmt;
use std::fmt::Write as _;

/// A minimal aligned-text table for terminal reports.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> TextTable {
        TextTable {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (padded/truncated to the header width).
    pub fn row<S: ToString>(&mut self, cells: &[S]) -> &mut Self {
        let mut r: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "{}", self.title)?;
        let line: String = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+");
        writeln!(f, "{line}")?;
        let hdr: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!(" {:w$} ", h, w = widths[i]))
            .collect();
        writeln!(f, "{}", hdr.join("|"))?;
        writeln!(f, "{line}")?;
        for row in &self.rows {
            let cells: Vec<String> =
                row.iter().enumerate().map(|(i, c)| format!(" {:w$} ", c, w = widths[i])).collect();
            writeln!(f, "{}", cells.join("|"))?;
        }
        writeln!(f, "{line}")
    }
}

/// Count of bugs per (app, kind) bucket with fixability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FixabilityCell {
    /// Bugs examined.
    pub total: u32,
    /// Bugs TM can fix.
    pub fixable: u32,
}

/// The headline aggregates the paper states in prose; asserted against the
/// dataset by the corpus consistency tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorpusSummary {
    /// All bugs examined.
    pub total: u32,
    /// Deadlocks examined / fixable.
    pub deadlocks: FixabilityCell,
    /// Atomicity violations examined / fixable.
    pub atomicity: FixabilityCell,
    /// Bugs fixable by the straightforward recipes (1 and 2) alone.
    pub fixed_by_simple_recipes: u32,
    /// Additional bugs only Recipe 3 can fix.
    pub fixed_only_by_recipe3: u32,
    /// Recipe-1 deadlock fixes that Recipe 3 also simplifies.
    pub simplified_by_recipe3: u32,
    /// Recipe-2 AV fixes that Recipe 4 also simplifies.
    pub simplified_by_recipe4: u32,
    /// Fixable bugs where the TM fix is judged preferable.
    pub tm_preferred: u32,
    /// ... split by kind.
    pub tm_preferred_deadlock: u32,
    /// TM-preferred atomicity violations.
    pub tm_preferred_atomicity: u32,
    /// Bugs whose fix was implemented and tested (18 in the paper).
    pub implemented: u32,
    /// Implemented deadlock fixes (7).
    pub implemented_deadlock: u32,
    /// Implemented atomicity fixes (11).
    pub implemented_atomicity: u32,
    /// AV bugs with completely missing synchronization (22).
    pub av_complete_missing: u32,
    /// ... of which TM-fixable (17).
    pub av_complete_missing_fixable: u32,
    /// ... of which fixable with a single atomic block (12).
    pub av_single_block: u32,
    /// ... single-block fixes rated easy (9).
    pub av_single_block_easy: u32,
    /// ... single-block fixes rated medium (3).
    pub av_single_block_medium: u32,
    /// Fixes whose atomic blocks contain condition-variable operations (5).
    pub downcall_condvar: u32,
    /// Fixes using a blocking retry (2).
    pub downcall_retry: u32,
    /// Fixes whose atomic blocks perform I/O (8).
    pub downcall_io: u32,
    /// Fixes with very long atomic actions (7).
    pub downcall_long_action: u32,
    /// Fixes calling other library/module code transactionally.
    pub downcall_library: u32,
    /// Unfixable deadlocks spanning non-preemptible multi-module code (5).
    pub multi_module_non_preemptible: u32,
}

impl CorpusSummary {
    /// Compute every aggregate from a dataset.
    pub fn compute(bugs: &[BugRecord]) -> CorpusSummary {
        let mut s = CorpusSummary { total: bugs.len() as u32, ..Default::default() };
        for bug in bugs {
            let a = analyze(bug);
            let fixable = a.is_fixable();
            match bug.kind {
                BugKind::Deadlock => {
                    s.deadlocks.total += 1;
                    if fixable {
                        s.deadlocks.fixable += 1;
                    }
                }
                BugKind::AtomicityViolation => {
                    s.atomicity.total += 1;
                    if fixable {
                        s.atomicity.fixable += 1;
                    }
                }
            }
            if bug.is_implemented() {
                s.implemented += 1;
                match bug.kind {
                    BugKind::Deadlock => s.implemented_deadlock += 1,
                    BugKind::AtomicityViolation => s.implemented_atomicity += 1,
                }
            }
            if bug.kind == BugKind::AtomicityViolation
                && bug.chars.missing_sync == Some(MissingSync::Complete)
            {
                s.av_complete_missing += 1;
                if fixable {
                    s.av_complete_missing_fixable += 1;
                    if bug.chars.single_atomic_block {
                        s.av_single_block += 1;
                        match tm_difficulty(bug, &a) {
                            Some(Difficulty::Easy) => s.av_single_block_easy += 1,
                            Some(Difficulty::Medium) => s.av_single_block_medium += 1,
                            _ => {}
                        }
                    }
                }
            }
            if let Some(plan) = a.plan() {
                match plan.primary {
                    Recipe::ReplaceLocks | Recipe::WrapAll => s.fixed_by_simple_recipes += 1,
                    Recipe::DeadlockPreemption => s.fixed_only_by_recipe3 += 1,
                    Recipe::WrapUnprotected => {}
                }
                match plan.simplified_by {
                    Some(Recipe::DeadlockPreemption) => s.simplified_by_recipe3 += 1,
                    Some(Recipe::WrapUnprotected) => s.simplified_by_recipe4 += 1,
                    _ => {}
                }
                let d = &bug.chars.downcalls;
                s.downcall_condvar += u32::from(d.condvar);
                s.downcall_retry += u32::from(d.retry);
                s.downcall_io += u32::from(d.io);
                s.downcall_long_action += u32::from(d.long_action);
                s.downcall_library += u32::from(d.library);
                if preference(bug, &a) == Some(Preference::Tm) {
                    s.tm_preferred += 1;
                    match bug.kind {
                        BugKind::Deadlock => s.tm_preferred_deadlock += 1,
                        BugKind::AtomicityViolation => s.tm_preferred_atomicity += 1,
                    }
                }
            } else if bug.kind == BugKind::Deadlock
                && bug.chars.multi_module
                && bug.chars.non_preemptible
            {
                s.multi_module_non_preemptible += 1;
            }
        }
        s
    }

    /// Total fixable bugs.
    pub fn fixable(&self) -> u32 {
        self.deadlocks.fixable + self.atomicity.fixable
    }

    /// The headline aggregates as aligned text (`txfix summary`).
    pub fn table(&self) -> String {
        let s = self;
        format!(
            "bugs examined:                 {}\n\
             \x20 deadlocks:                   {} ({} fixable)\n\
             \x20 atomicity violations:        {} ({} fixable)\n\
             TM can fix:                    {} ({:.0}%)\n\
             \x20 by recipes 1 and 2 alone:    {}\n\
             \x20 only by recipe 3:            {}\n\
             \x20 simplified by recipe 3:      {}\n\
             \x20 simplified by recipe 4:      {}\n\
             TM fix judged preferable:      {} ({} DL / {} AV)\n\
             implemented & tested fixes:    {} ({} DL / {} AV)",
            s.total,
            s.deadlocks.total,
            s.deadlocks.fixable,
            s.atomicity.total,
            s.atomicity.fixable,
            s.fixable(),
            100.0 * s.fixable() as f64 / s.total as f64,
            s.fixed_by_simple_recipes,
            s.fixed_only_by_recipe3,
            s.simplified_by_recipe3,
            s.simplified_by_recipe4,
            s.tm_preferred,
            s.tm_preferred_deadlock,
            s.tm_preferred_atomicity,
            s.implemented,
            s.implemented_deadlock,
            s.implemented_atomicity
        )
    }
}

fn bucket(bugs: &[BugRecord], app: App, kind: BugKind) -> FixabilityCell {
    let mut c = FixabilityCell::default();
    for b in bugs.iter().filter(|b| b.app == app && b.kind == kind) {
        c.total += 1;
        if analyze(b).is_fixable() {
            c.fixable += 1;
        }
    }
    c
}

/// Build Table 1: bugs TM can fix, per application and bug type.
pub fn table1(bugs: &[BugRecord]) -> TextTable {
    let mut t = TextTable::new(
        "Table 1. Concurrency bugs that transactional memory can fix",
        &["Bug type", "Application", "Bugs examined", "TM can fix"],
    );
    for kind in [BugKind::Deadlock, BugKind::AtomicityViolation] {
        for app in App::ALL {
            let c = bucket(bugs, app, kind);
            t.row(&[kind.to_string(), app.to_string(), c.total.to_string(), c.fixable.to_string()]);
        }
    }
    let s = CorpusSummary::compute(bugs);
    t.row(&["Total".to_string(), String::new(), s.total.to_string(), s.fixable().to_string()]);
    t
}

/// Build Table 2: difficulty of the developers' vs the TM fixes, for bugs
/// both could fix.
pub fn table2(bugs: &[BugRecord]) -> TextTable {
    let mut t = TextTable::new(
        "Table 2. Characterization of developers' and TM fixes (easy/medium/hard)",
        &["Application", "Dev easy", "Dev med", "Dev hard", "TM easy", "TM med", "TM hard"],
    );
    let mut totals = [0u32; 6];
    for app in App::ALL {
        let mut dev = [0u32; 3];
        let mut tm = [0u32; 3];
        for b in bugs.iter().filter(|b| b.app == app) {
            let a = analyze(b);
            let Some(td) = tm_difficulty(b, &a) else { continue };
            dev[b.dev_fix.difficulty as usize] += 1;
            tm[td as usize] += 1;
        }
        for i in 0..3 {
            totals[i] += dev[i];
            totals[3 + i] += tm[i];
        }
        t.row(&[
            app.to_string(),
            dev[0].to_string(),
            dev[1].to_string(),
            dev[2].to_string(),
            tm[0].to_string(),
            tm[1].to_string(),
            tm[2].to_string(),
        ]);
    }
    let mut row = vec!["Total".to_string()];
    row.extend(totals.iter().map(|v| v.to_string()));
    t.row(&row);
    t
}

/// Build Table 3: downcalls made by the TM fixes' atomic blocks.
pub fn table3(bugs: &[BugRecord]) -> TextTable {
    let mut t = TextTable::new(
        "Table 3. Downcalls performed by atomic blocks of the TM fixes",
        &["Bug type", "Application", "CV", "Retry", "I/O", "LongAction", "Library"],
    );
    for kind in [BugKind::Deadlock, BugKind::AtomicityViolation] {
        for app in App::ALL {
            let mut c = [0u32; 5];
            for b in bugs.iter().filter(|b| b.app == app && b.kind == kind) {
                if !analyze(b).is_fixable() {
                    continue;
                }
                let d = &b.chars.downcalls;
                c[0] += u32::from(d.condvar);
                c[1] += u32::from(d.retry);
                c[2] += u32::from(d.io);
                c[3] += u32::from(d.long_action);
                c[4] += u32::from(d.library);
            }
            t.row(&[
                kind.to_string(),
                app.to_string(),
                c[0].to_string(),
                c[1].to_string(),
                c[2].to_string(),
                c[3].to_string(),
                c[4].to_string(),
            ]);
        }
    }
    let s = CorpusSummary::compute(bugs);
    t.row(&[
        "Total".to_string(),
        String::new(),
        s.downcall_condvar.to_string(),
        s.downcall_retry.to_string(),
        s.downcall_io.to_string(),
        s.downcall_long_action.to_string(),
        s.downcall_library.to_string(),
    ]);
    t
}

/// Tables 1–3, one after the other (`txfix tables`).
pub fn tables(bugs: &[BugRecord]) -> String {
    format!("{}\n{}\n{}", table1(bugs), table2(bugs), table3(bugs))
}

/// One line per bug with its verdict (`txfix bugs`), optionally narrowed
/// by a `--fixable` / `--unfixable` / `--implemented` filter.
///
/// # Errors
///
/// A usage message for any other filter.
pub fn bug_list(bugs: &[BugRecord], filter: Option<&str>) -> Result<String, String> {
    let mut lines = Vec::new();
    for b in bugs {
        let a = analyze(b);
        let keep = match filter {
            Some("--fixable") => a.is_fixable(),
            Some("--unfixable") => !a.is_fixable(),
            Some("--implemented") => b.is_implemented(),
            Some(other) => return Err(format!("unknown filter `{other}`")),
            None => true,
        };
        if !keep {
            continue;
        }
        let verdict = match &a {
            Analysis::Fixable(p) => format!("fix: {}", p.primary),
            Analysis::Unfixable(r) => format!("NOT FIXABLE: {r}"),
        };
        lines.push(format!(
            "{:18} {:8} {:20} {}",
            b.id,
            b.app.to_string(),
            b.kind.to_string(),
            verdict
        ));
    }
    Ok(lines.join("\n"))
}

/// The full analysis of one bug (`txfix show`).
pub fn show(b: &BugRecord) -> String {
    let mut out = format!("{} — {} {}\n  {}", b.id, b.app, b.kind, b.summary);
    if b.synthetic_id {
        out.push_str("\n  (id synthesized during dataset reconstruction; see DESIGN.md)");
    }
    let _ = write!(
        out,
        "\n  developers' fix: {} ({} LOC, {} attempt{})",
        b.dev_fix.difficulty,
        b.dev_fix.loc,
        b.dev_fix.attempts,
        if b.dev_fix.attempts == 1 { "" } else { "s" }
    );
    let a = analyze(b);
    match &a {
        Analysis::Fixable(plan) => {
            let _ = write!(out, "\n  TM fix: {}", plan.primary);
            if let Some(simpler) = plan.simplified_by {
                let _ = write!(out, "\n    also simplified by {simpler}");
            }
            if let Some(d) = tm_difficulty(b, &a) {
                let _ = write!(out, "\n    difficulty: {d}");
            }
            match preference(b, &a) {
                Some(Preference::Tm) => {
                    out.push_str("\n    judged SIMPLER than the developers' fix")
                }
                Some(Preference::Developers) => {
                    out.push_str("\n    developers' fix judged as easy or easier")
                }
                None => {}
            }
        }
        Analysis::Unfixable(r) => {
            let _ = write!(out, "\n  TM cannot fix this bug: {r}");
        }
    }
    let d = &b.chars.downcalls;
    if d.any() {
        let calls: Vec<&str> = [
            (d.condvar, "condition variables"),
            (d.retry, "retry"),
            (d.io, "I/O"),
            (d.long_action, "long actions"),
            (d.library, "library calls"),
        ]
        .into_iter()
        .filter_map(|(used, what)| used.then_some(what))
        .collect();
        let _ = write!(out, "\n  atomic blocks contain: {}", calls.join(", "));
    }
    if let Some(key) = b.scenario {
        let _ = write!(out, "\n  executable reproduction: `txfix scenario {key}`");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bug::{BugChars, DevFix, Downcalls};

    fn mini_corpus() -> Vec<BugRecord> {
        vec![
            BugRecord {
                id: "A#1",
                app: App::Apache,
                kind: BugKind::Deadlock,
                synthetic_id: true,
                summary: "lock cycle",
                chars: BugChars { lock_cycle: true, fix_sites: 2, ..Default::default() },
                dev_fix: DevFix { difficulty: Difficulty::Hard, loc: 30, attempts: 2 },
                scenario: Some("x"),
            },
            BugRecord {
                id: "A#2",
                app: App::Apache,
                kind: BugKind::AtomicityViolation,
                synthetic_id: true,
                summary: "missing sync",
                chars: BugChars {
                    missing_sync: Some(MissingSync::Complete),
                    single_atomic_block: true,
                    fix_sites: 1,
                    downcalls: Downcalls { io: true, ..Downcalls::NONE },
                    ..Default::default()
                },
                dev_fix: DevFix { difficulty: Difficulty::Medium, loc: 20, attempts: 1 },
                scenario: None,
            },
            BugRecord {
                id: "M#1",
                app: App::Mozilla,
                kind: BugKind::Deadlock,
                synthetic_id: true,
                summary: "design flaw",
                chars: BugChars { design_flaw: true, ..Default::default() },
                dev_fix: DevFix { difficulty: Difficulty::Hard, loc: 50, attempts: 3 },
                scenario: None,
            },
        ]
    }

    #[test]
    fn summary_counts_the_mini_corpus() {
        let s = CorpusSummary::compute(&mini_corpus());
        assert_eq!(s.total, 3);
        assert_eq!(s.deadlocks, FixabilityCell { total: 2, fixable: 1 });
        assert_eq!(s.atomicity, FixabilityCell { total: 1, fixable: 1 });
        assert_eq!(s.fixable(), 2);
        assert_eq!(s.implemented, 1);
        assert_eq!(s.downcall_io, 1);
        assert_eq!(s.av_complete_missing, 1);
        assert_eq!(s.av_single_block_easy, 1);
        assert_eq!(s.simplified_by_recipe3, 1);
        // A#1: TM easy vs dev hard. A#2: TM easy (single block, x-call
        // I/O) vs dev medium. Both TM-preferred.
        assert_eq!(s.tm_preferred, 2);
    }

    #[test]
    fn table1_has_a_row_per_bucket_plus_total() {
        let t = table1(&mini_corpus());
        assert_eq!(t.len(), 7);
        let rendered = t.to_string();
        assert!(rendered.contains("Mozilla"));
        assert!(rendered.contains("Total"));
    }

    #[test]
    fn table_render_is_aligned() {
        let mut t = TextTable::new("T", &["a", "bbbb"]);
        t.row(&["xxxxx", "y"]);
        let out = t.to_string();
        let lines: Vec<&str> = out.lines().collect();
        // header row and data row have equal width
        assert_eq!(lines[2].len(), lines[4].len());
    }

    #[test]
    fn tables_2_and_3_render() {
        let bugs = mini_corpus();
        let t2 = table2(&bugs).to_string();
        let t3 = table3(&bugs).to_string();
        assert!(t2.contains("TM easy"));
        assert!(t3.contains("LongAction"));
    }
}
