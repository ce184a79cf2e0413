//! The shared frame around every `txfix` verb that selects scenarios.
//!
//! `stress`, `kv`, `chaos`, `explore`, `autofix`, `crash`, `canary`,
//! `list`, `analyze`, `lint` and `scenario` share the same life cycle:
//! parse a selection plus the common `--json` / `--seed` flags, run,
//! render either the JSON document or a human table, persist the
//! document to its canonical artifact (the one file a sweep writes, in
//! the working directory), and exit nonzero when the verb's own
//! pass/fail verdict says so. Each verb implements [`SweepRunner`] with
//! just its own parts and [`run_sweep`] supplies the frame once:
//!
//! - [`SweepRunner::universe`] declares the verb's fixed key set (plus
//!   the noun its error text uses). The frame owns the one selection
//!   decision — `--all`, or a non-empty subset of the universe, or a
//!   usage error naming it — and the runner reads the validated choice
//!   back, typed, through [`SweepArgs::pick`].
//! - [`SweepRunner::usage`] is the verb's block of `txfix help`; the
//!   help text is assembled from the runners, so it cannot go stale.
//! - [`SweepRunner::flag`] handles the verb's own flags and
//!   [`SweepRunner::execute`] runs it. A runner without an artifact
//!   (`list`, `analyze`, `lint`, `scenario`) only prints, and the frame
//!   rejects `--seed` for it unless it says otherwise.
//!
//! The verb's name is not the runner's business: the dispatch table that
//! owns the runners (`txfix::cli`) owns the names.

use std::path::Path;
use std::process::ExitCode;

/// What a [`SweepRunner`] made of one command-specific flag.
pub enum Flag {
    /// Not a flag this sweep knows; the driver reports an error.
    Unknown,
    /// Flag consumed; it took no value.
    Seen,
    /// Flag consumed together with the argument that followed it.
    SeenWithValue,
}

/// The fixed key set a verb selects from.
#[derive(Clone, Debug)]
pub struct Universe {
    /// What one key is, for error text (`"stress scenario"`).
    pub noun: &'static str,
    /// Every selectable key, in `--all` order.
    pub keys: Vec<&'static str>,
    /// The verb runs exactly one key per invocation (so no `--all`).
    pub one: bool,
}

impl Universe {
    /// A universe any non-empty subset of which (or `--all`) may be
    /// selected.
    pub fn new(noun: &'static str, keys: impl IntoIterator<Item = &'static str>) -> Universe {
        Universe { noun, keys: keys.into_iter().collect(), one: false }
    }

    /// Restrict selections to exactly one key.
    pub fn one(self) -> Universe {
        Universe { one: true, ..self }
    }
}

/// The common options every sweep accepts, parsed by [`run_sweep`] and
/// handed to [`SweepRunner::execute`].
#[derive(Clone, Debug, Default)]
pub struct SweepArgs {
    /// Positional keys, already checked against the runner's
    /// [`Universe`].
    pub keys: Vec<String>,
    /// `--all`: sweep the full matrix.
    pub all: bool,
    /// `--json`: print the document instead of the human rendering.
    pub json: bool,
    /// `--seed S`: deterministic seed, when the sweep takes one.
    pub seed: Option<u64>,
}

impl SweepArgs {
    /// Whether this selection names `key` (every key, under `--all`).
    pub fn selects(&self, key: &str) -> bool {
        self.all || self.keys.iter().any(|k| k == key)
    }

    /// The members of `universe` this selection names, looked up by
    /// `name`: all of them under `--all`, else one per key in key order.
    pub fn pick<T: Copy>(&self, universe: &[T], name: impl Fn(T) -> &'static str) -> Vec<T> {
        if self.all {
            return universe.to_vec();
        }
        self.keys.iter().filter_map(|k| universe.iter().copied().find(|&u| name(u) == k)).collect()
    }
}

/// The product of one sweep execution.
pub struct SweepOutput {
    /// The machine-readable report document (no trailing newline).
    pub rendered: String,
    /// The human rendering printed without `--json` (may be multi-line).
    pub table: String,
    /// The sweep's verdict; `false` exits nonzero after the artifact is
    /// written (a failing sweep still leaves its evidence on disk).
    pub ok: bool,
    /// Message printed to stderr when `ok` is `false` (nothing when
    /// empty: the rendering already says what failed).
    pub failure: &'static str,
}

/// One `txfix` sweep subcommand behind the shared [`run_sweep`] frame.
pub trait SweepRunner {
    /// The verb's block of `txfix help`, laid out as printed.
    fn usage(&self) -> &'static str;

    /// Canonical artifact file name (`"BENCH_stm.json"`); `None` for
    /// verbs that only print (`list`, `analyze`, `lint`, `scenario`).
    fn artifact(&self) -> Option<&'static str> {
        None
    }

    /// The keys this verb selects from; `None` when it takes no key set
    /// (`list`) and the frame has nothing to check.
    fn universe(&self) -> Option<Universe> {
        None
    }

    /// Whether `--seed` is meaningful (passing one is a usage error
    /// otherwise): by default, for the sweeps that write an artifact.
    fn takes_seed(&self) -> bool {
        self.artifact().is_some()
    }

    /// Handle one command-specific flag. `value` is the argument after the
    /// flag, if any; return [`Flag::SeenWithValue`] to consume it.
    ///
    /// # Errors
    ///
    /// A usage message when the flag is recognized but its value is
    /// missing or malformed.
    fn flag(&mut self, _flag: &str, _value: Option<&str>) -> Result<Flag, String> {
        Ok(Flag::Unknown)
    }

    /// Run the sweep and produce its document and rendering.
    ///
    /// # Errors
    ///
    /// A usage message; [`run_sweep`] prints it and exits nonzero.
    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String>;
}

/// The value of a flag that takes one positive integer.
///
/// # Errors
///
/// `"<flag> takes a positive integer"` when the value is missing,
/// malformed or not above zero.
pub fn positive<T>(flag: &str, value: Option<&str>) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + Default,
{
    match value.and_then(|s| s.parse::<T>().ok()) {
        Some(n) if n > T::default() => Ok(n),
        _ => Err(format!("{flag} takes a positive integer")),
    }
}

/// The value of a flag that takes a comma-separated list of positive
/// integers.
///
/// # Errors
///
/// `"<flag> takes a comma-separated list, e.g. <example>"`.
pub fn positive_list(flag: &str, value: Option<&str>, example: &str) -> Result<Vec<usize>, String> {
    let parsed: Option<Vec<usize>> = value
        .and_then(|list| list.split(',').map(|t| positive(flag, Some(t.trim())).ok()).collect());
    match parsed {
        Some(list) if !list.is_empty() => Ok(list),
        _ => Err(format!("{flag} takes a comma-separated list, e.g. {example}")),
    }
}

/// The frame's one selection decision: `--all`, or a non-empty subset
/// of the universe (exactly one key for a [`Universe::one`]), or a usage
/// error naming the universe.
fn check_selection(universe: Option<Universe>, args: &SweepArgs) -> Result<(), String> {
    let Some(Universe { noun, keys, one }) = universe else {
        return Ok(());
    };
    let available = keys.join(", ");
    if let Some(k) = args.keys.iter().find(|k| !keys.contains(&k.as_str())) {
        return Err(format!("no {noun} `{k}` (available: {available})"));
    }
    if one && (args.all || args.keys.len() != 1) {
        return Err(format!("select exactly one {noun} (available: {available})"));
    }
    if !one && !args.all && args.keys.is_empty() {
        return Err(format!("select a {noun} or --all (available: {available})"));
    }
    Ok(())
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parse `raw` into the common [`SweepArgs`], delegating unknown flags to
/// the runner and checking the selection against its universe.
///
/// # Errors
///
/// A usage message for malformed or unknown options and for a selection
/// the universe does not admit.
pub fn parse_sweep_args(runner: &mut dyn SweepRunner, raw: &[String]) -> Result<SweepArgs, String> {
    let mut args = SweepArgs::default();
    let mut i = 0;
    while i < raw.len() {
        let opt = raw[i].as_str();
        match opt {
            "--all" => args.all = true,
            "--json" => args.json = true,
            "--seed" => {
                if !runner.takes_seed() {
                    return Err("this verb does not take --seed".into());
                }
                i += 1;
                match raw.get(i).map(String::as_str).and_then(parse_seed) {
                    Some(s) => args.seed = Some(s),
                    None => return Err("--seed takes an integer (decimal or 0x-hex)".into()),
                }
            }
            _ if opt.starts_with('-') => {
                let value = raw.get(i + 1).map(String::as_str);
                match runner.flag(opt, value)? {
                    Flag::Seen => {}
                    Flag::SeenWithValue => i += 1,
                    Flag::Unknown => return Err(format!("unknown option `{opt}`")),
                }
            }
            key => args.keys.push(key.to_string()),
        }
        i += 1;
    }
    check_selection(runner.universe(), &args)?;
    Ok(args)
}

/// Write the canonical artifact: the document plus a trailing newline.
///
/// # Errors
///
/// An I/O message naming the path that failed.
fn write_artifact(canonical: &Path, rendered: &str) -> Result<(), String> {
    std::fs::write(canonical, format!("{rendered}\n"))
        .map_err(|e| format!("cannot write {}: {e}", canonical.display()))
}

/// The shared frame: parse, select, execute, print, persist, exit.
///
/// # Errors
///
/// A usage message (bad arguments or selection) for the caller's usage
/// printer; nothing has run.
pub fn run_sweep(runner: &mut dyn SweepRunner, raw: &[String]) -> Result<ExitCode, String> {
    let args = parse_sweep_args(runner, raw)?;
    let out = runner.execute(&args)?;
    if args.json {
        println!("{}", out.rendered);
    } else if !out.table.is_empty() {
        println!("{}", out.table);
    }
    if let Some(name) = runner.artifact() {
        match write_artifact(Path::new(name), &out.rendered) {
            Ok(()) if !args.json => println!("\nwrote {name}"),
            Ok(()) => {}
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if out.ok {
        return Ok(ExitCode::SUCCESS);
    }
    if !out.failure.is_empty() {
        eprintln!("error: {}", out.failure);
    }
    Ok(ExitCode::FAILURE)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        secs: Option<u64>,
        seedable: bool,
        universe: Option<Universe>,
    }

    impl Dummy {
        fn new() -> Dummy {
            Dummy { secs: None, seedable: true, universe: None }
        }
    }

    impl SweepRunner for Dummy {
        fn usage(&self) -> &'static str {
            "  dummy"
        }
        fn universe(&self) -> Option<Universe> {
            self.universe.clone()
        }
        fn takes_seed(&self) -> bool {
            self.seedable
        }
        fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
            match flag {
                "--secs" => {
                    self.secs = Some(positive(flag, value)?);
                    Ok(Flag::SeenWithValue)
                }
                "--bare" => Ok(Flag::Seen),
                _ => Ok(Flag::Unknown),
            }
        }
        fn execute(&mut self, _args: &SweepArgs) -> Result<SweepOutput, String> {
            unreachable!("parse-only tests")
        }
    }

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn common_flags_parse() {
        let mut d = Dummy::new();
        let a = parse_sweep_args(&mut d, &strs(&["key_a", "--json", "--seed", "0x2A", "--all"]))
            .unwrap();
        assert_eq!(a.keys, vec!["key_a"]);
        assert!(a.json && a.all);
        assert_eq!(a.seed, Some(42));
    }

    #[test]
    fn command_flags_delegate_with_and_without_values() {
        let mut d = Dummy::new();
        let a = parse_sweep_args(&mut d, &strs(&["--secs", "15", "--bare", "k"])).unwrap();
        assert_eq!(d.secs, Some(15));
        assert_eq!(a.keys, vec!["k"]);
    }

    #[test]
    fn unknown_flags_and_bad_values_are_usage_errors() {
        let mut d = Dummy::new();
        assert!(parse_sweep_args(&mut d, &strs(&["--nope"])).is_err());
        assert!(parse_sweep_args(&mut d, &strs(&["--secs", "-1"])).is_err());
        assert!(parse_sweep_args(&mut d, &strs(&["--seed", "zzz"])).is_err());
        assert_eq!(
            parse_sweep_args(&mut d, &strs(&["--out", "X.json"])).unwrap_err(),
            "unknown option `--out`"
        );
    }

    #[test]
    fn value_helpers_accept_good_input_and_name_the_flag_otherwise() {
        assert_eq!(positive::<u64>("--ops", Some("12")), Ok(12));
        for bad in [None, Some("0"), Some("-1"), Some("x"), Some("0.5")] {
            assert_eq!(
                positive::<u64>("--ops", bad).unwrap_err(),
                "--ops takes a positive integer"
            );
        }
        assert_eq!(positive_list("--threads", Some("1, 4"), "1,4"), Ok(vec![1, 4]));
        for bad in [None, Some(""), Some("2,0"), Some("2,x")] {
            assert_eq!(
                positive_list("--threads", bad, "1,4").unwrap_err(),
                "--threads takes a comma-separated list, e.g. 1,4"
            );
        }
    }

    #[test]
    fn the_frame_owns_the_selection_decision() {
        let mut d = Dummy::new();
        assert_eq!(parse_sweep_args(&mut d, &strs(&["anything"])).unwrap().keys, ["anything"]);
        d.universe = Some(Universe::new("fruit", ["fig", "plum"]));
        let pick = |d: &mut Dummy, raw: &[&str]| {
            parse_sweep_args(d, &strs(raw)).map(|args| args.pick(&["fig", "plum"], |s| s))
        };
        assert_eq!(pick(&mut d, &["plum", "fig"]), Ok(vec!["plum", "fig"]));
        assert_eq!(pick(&mut d, &["--all"]), Ok(vec!["fig", "plum"]));
        let offer = "(available: fig, plum)";
        assert_eq!(pick(&mut d, &["fig", "kiwi"]).unwrap_err(), format!("no fruit `kiwi` {offer}"));
        assert_eq!(pick(&mut d, &[]).unwrap_err(), format!("select a fruit or --all {offer}"));
        d.universe = d.universe.map(Universe::one);
        assert_eq!(pick(&mut d, &["plum"]), Ok(vec!["plum"]));
        for wrong in [&[][..], &["--all"], &["fig", "plum"]] {
            assert_eq!(
                pick(&mut d, wrong).unwrap_err(),
                format!("select exactly one fruit {offer}")
            );
        }
    }

    #[test]
    fn capability_gates_reject_inapplicable_common_flags() {
        let mut d = Dummy::new();
        d.seedable = false;
        assert!(parse_sweep_args(&mut d, &strs(&["--seed", "7"])).is_err());
    }

    #[test]
    fn artifact_writer_writes_exactly_the_canonical_file() {
        let dir = std::env::temp_dir().join(format!("txfix_sweep_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let canonical = dir.join("DUMMY.json");
        write_artifact(&canonical, "{\"x\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&canonical).unwrap(), "{\"x\":1}\n");
        let files: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(files, ["DUMMY.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
