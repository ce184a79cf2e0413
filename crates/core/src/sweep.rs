//! The shared frame around every `txfix` sweep subcommand.
//!
//! Six CLI sweeps (`stress`, `chaos`, `explore`, `autofix`, `canary`,
//! `list`) share the same life cycle: parse a scenario selection plus the
//! common `--json` / `--seed` / `--out` flags, run, render either the JSON
//! document or a human table, persist the document to a canonical artifact
//! at the repo root plus a timestamped copy under `results/`, and exit
//! nonzero when the sweep's own pass/fail verdict says so. Each command
//! implements [`SweepRunner`] with just its command-specific parts —
//! extra flags, selection validation, execution — and [`run_sweep`]
//! supplies the frame once, instead of six hand-rolled copies of it.

use std::path::{Path, PathBuf};
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

/// The common options every sweep accepts, parsed by [`run_sweep`] and
/// handed to [`SweepRunner::execute`].
#[derive(Clone, Debug, Default)]
pub struct SweepArgs {
    /// Positional scenario/canary keys (empty when `--all` or for sweeps
    /// without a selection).
    pub keys: Vec<String>,
    /// `--all`: sweep the full matrix.
    pub all: bool,
    /// `--json`: print the document instead of the human rendering.
    pub json: bool,
    /// `--seed S`: deterministic seed, when the sweep takes one.
    pub seed: Option<u64>,
    /// `--out PATH`: canonical artifact destination override.
    pub out: Option<PathBuf>,
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
    /// Message printed to stderr when `ok` is `false`.
    pub failure: &'static str,
}

/// One `txfix` sweep subcommand behind the shared [`run_sweep`] frame.
pub trait SweepRunner {
    /// Subcommand name, for error messages (`"stress"`).
    fn name(&self) -> &'static str;

    /// Canonical artifact file name (`"BENCH_stm.json"`), or `None` for
    /// sweeps that only print (`list`).
    fn artifact(&self) -> Option<&'static str>;

    /// Whether `--seed` is meaningful for this sweep (`list` says no, and
    /// passing one becomes a usage error).
    fn takes_seed(&self) -> bool {
        true
    }

    /// Handle one command-specific flag. `value` is the argument after the
    /// flag, if any; return [`Flag::SeenWithValue`] to consume it.
    ///
    /// # Errors
    ///
    /// A usage message when the flag is recognized but its value is
    /// missing or malformed.
    fn flag(&mut self, flag: &str, value: Option<&str>) -> Result<Flag, String> {
        let _ = value;
        let _ = flag;
        Ok(Flag::Unknown)
    }

    /// Validate the scenario selection before anything runs. The default
    /// accepts any selection; sweeps with a fixed key set reject unknown
    /// keys here, and sweeps that need an explicit selection reject the
    /// empty one.
    ///
    /// # Errors
    ///
    /// A usage message naming the valid selections.
    fn select(&mut self, args: &SweepArgs) -> Result<(), String> {
        let _ = args;
        Ok(())
    }

    /// Run the sweep and produce its document and rendering.
    ///
    /// # Errors
    ///
    /// A usage message; [`run_sweep`] prints it and exits nonzero.
    fn execute(&mut self, args: &SweepArgs) -> Result<SweepOutput, String>;
}

/// The value of a flag that takes one positive number.
///
/// # Errors
///
/// `"<flag> takes a positive integer"` (`number` for a fractional `T`)
/// when the value is missing, malformed or not above zero.
pub fn positive<T>(flag: &str, value: Option<&str>) -> Result<T, String>
where
    T: std::str::FromStr + PartialOrd + Default,
{
    match value.and_then(|s| s.parse::<T>().ok()) {
        Some(n) if n > T::default() => Ok(n),
        _ => {
            // Only a fractional `T` parses "0.5".
            let kind = if "0.5".parse::<T>().is_ok() { "number" } else { "integer" };
            Err(format!("{flag} takes a positive {kind}"))
        }
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

/// Look every key of a positional selection up in the sweep's fixed
/// `universe`, by `name`.
///
/// # Errors
///
/// ``"no <noun> `<key>` (available: …)"`` for the first key not in it.
pub fn select_from<T: Copy>(
    noun: &str,
    universe: &[T],
    name: impl Fn(T) -> &'static str,
    keys: &[String],
) -> Result<Vec<T>, String> {
    keys.iter()
        .map(|k| {
            universe.iter().copied().find(|&u| name(u) == k).ok_or_else(|| {
                let available: Vec<&str> = universe.iter().map(|&u| name(u)).collect();
                format!("no {noun} `{k}` (available: {})", available.join(", "))
            })
        })
        .collect()
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parse `raw` into the common [`SweepArgs`], delegating unknown flags to
/// the runner.
///
/// # Errors
///
/// A usage message for malformed or unknown options.
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
                    return Err(format!("{} does not take --seed", runner.name()));
                }
                i += 1;
                match raw.get(i).map(String::as_str).and_then(parse_seed) {
                    Some(s) => args.seed = Some(s),
                    None => return Err("--seed takes an integer (decimal or 0x-hex)".into()),
                }
            }
            "--out" => {
                if runner.artifact().is_none() {
                    return Err(format!(
                        "{} writes no artifact, so --out is meaningless",
                        runner.name()
                    ));
                }
                i += 1;
                match raw.get(i) {
                    Some(p) if !p.is_empty() => args.out = Some(PathBuf::from(p)),
                    _ => return Err("--out takes a file path".into()),
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
    Ok(args)
}

/// Write the canonical artifact plus a timestamped copy under `results/`,
/// returning the per-run path.
///
/// # Errors
///
/// An I/O message naming the path that failed.
pub fn write_artifact(canonical: &Path, rendered: &str) -> Result<PathBuf, String> {
    let body = format!("{rendered}\n");
    std::fs::write(canonical, &body)
        .map_err(|e| format!("cannot write {}: {e}", canonical.display()))?;
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let stem = canonical.file_stem().and_then(|s| s.to_str()).unwrap_or("SWEEP");
    let per_run = PathBuf::from(format!("results/{stem}_{stamp}.json"));
    std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&per_run, &body))
        .map_err(|e| format!("cannot write {}: {e}", per_run.display()))?;
    Ok(per_run)
}

/// Outcome of [`run_sweep`]: exit success, or a usage error carrying the
/// message for the caller's usage printer.
pub enum SweepExit {
    /// The sweep ran; exit with this code.
    Done(ExitCode),
    /// Argument/selection error; print usage with this message.
    Usage(String),
}

/// The shared frame: parse, select, execute, print, persist, exit.
pub fn run_sweep(runner: &mut dyn SweepRunner, raw: &[String]) -> SweepExit {
    let args = match parse_sweep_args(runner, raw) {
        Ok(a) => a,
        Err(e) => return SweepExit::Usage(e),
    };
    if let Err(e) = runner.select(&args) {
        return SweepExit::Usage(e);
    }
    let out = match runner.execute(&args) {
        Ok(o) => o,
        Err(e) => return SweepExit::Usage(e),
    };
    if args.json {
        println!("{}", out.rendered);
    } else if !out.table.is_empty() {
        println!("{}", out.table);
    }
    if let Some(name) = runner.artifact() {
        let canonical = args.out.clone().unwrap_or_else(|| PathBuf::from(name));
        match write_artifact(&canonical, &out.rendered) {
            Ok(per_run) => {
                if !args.json {
                    println!("\nwrote {} and {}", canonical.display(), per_run.display());
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return SweepExit::Done(ExitCode::FAILURE);
            }
        }
    }
    if out.ok {
        SweepExit::Done(ExitCode::SUCCESS)
    } else {
        eprintln!("error: {}", out.failure);
        SweepExit::Done(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        secs: Option<f64>,
        artifact: Option<&'static str>,
        seedable: bool,
    }

    impl Dummy {
        fn new() -> Dummy {
            Dummy { secs: None, artifact: Some("DUMMY.json"), seedable: true }
        }
    }

    impl SweepRunner for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn artifact(&self) -> Option<&'static str> {
            self.artifact
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
        let a = parse_sweep_args(
            &mut d,
            &strs(&["key_a", "--json", "--seed", "0x2A", "--out", "X.json", "--all"]),
        )
        .unwrap();
        assert_eq!(a.keys, vec!["key_a"]);
        assert!(a.json && a.all);
        assert_eq!(a.seed, Some(42));
        assert_eq!(a.out.as_deref(), Some(Path::new("X.json")));
    }

    #[test]
    fn command_flags_delegate_with_and_without_values() {
        let mut d = Dummy::new();
        let a = parse_sweep_args(&mut d, &strs(&["--secs", "1.5", "--bare", "k"])).unwrap();
        assert_eq!(d.secs, Some(1.5));
        assert_eq!(a.keys, vec!["k"]);
    }

    #[test]
    fn unknown_flags_and_bad_values_are_usage_errors() {
        let mut d = Dummy::new();
        assert!(parse_sweep_args(&mut d, &strs(&["--nope"])).is_err());
        assert!(parse_sweep_args(&mut d, &strs(&["--secs", "-1"])).is_err());
        assert!(parse_sweep_args(&mut d, &strs(&["--seed", "zzz"])).is_err());
    }

    #[test]
    fn value_helpers_accept_good_input_and_name_the_flag_otherwise() {
        assert_eq!(positive::<u64>("--ops", Some("12")), Ok(12));
        assert_eq!(positive::<f64>("--secs", Some("0.5")), Ok(0.5));
        for bad in [None, Some("0"), Some("x")] {
            assert_eq!(
                positive::<u64>("--ops", bad).unwrap_err(),
                "--ops takes a positive integer"
            );
        }
        assert_eq!(
            positive::<f64>("--secs", Some("-1")).unwrap_err(),
            "--secs takes a positive number"
        );
        assert_eq!(positive_list("--shards", Some("2, 4"), "2,4"), Ok(vec![2, 4]));
        for bad in [None, Some(""), Some("2,0"), Some("2,x")] {
            assert_eq!(
                positive_list("--shards", bad, "2,4").unwrap_err(),
                "--shards takes a comma-separated list, e.g. 2,4"
            );
        }
        let pick = |keys: &[&str]| select_from("fruit", &["fig", "plum"], |s| s, &strs(keys));
        assert_eq!(pick(&["plum", "fig"]), Ok(vec!["plum", "fig"]));
        assert_eq!(pick(&["fig", "kiwi"]).unwrap_err(), "no fruit `kiwi` (available: fig, plum)");
    }

    #[test]
    fn capability_gates_reject_inapplicable_common_flags() {
        let mut d = Dummy::new();
        d.seedable = false;
        assert!(parse_sweep_args(&mut d, &strs(&["--seed", "7"])).is_err());
        let mut d = Dummy::new();
        d.artifact = None;
        assert!(parse_sweep_args(&mut d, &strs(&["--out", "X.json"])).is_err());
    }

    #[test]
    fn artifact_writer_places_canonical_and_timestamped_copies() {
        let dir = std::env::temp_dir().join(format!("txfix_sweep_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prev = std::env::current_dir().unwrap();
        // Serialize against other tests touching cwd (none today).
        std::env::set_current_dir(&dir).unwrap();
        let res = write_artifact(Path::new("DUMMY.json"), "{\"x\":1}");
        let canonical = std::fs::read_to_string("DUMMY.json");
        std::env::set_current_dir(prev).unwrap();
        let per_run = res.unwrap();
        assert!(per_run.starts_with("results"));
        assert_eq!(canonical.unwrap(), "{\"x\":1}\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
