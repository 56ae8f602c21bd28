//! Benchmark harness: the binaries regenerating the paper's tables and
//! figures. See `src/bin/`.
//!
//! Every binary supports `--json <path>`: alongside its human-readable
//! stdout it writes a machine-readable [`sbst_core::RunReport`] so perf
//! numbers are comparable run-over-run (the schema is documented in
//! EXPERIMENTS.md).

use std::path::PathBuf;

use sbst_core::RunReport;
use sbst_gates::FaultModel;

/// Parses an `SBST_STORE_KEY` value: a 64-bit MAC-key seed, decimal or
/// `0x`-prefixed hex. The seed derives the store's SipHash key via
/// `MacKey::from_seed`, so a fixed seed reproduces the same key (and the
/// same sealed stores) on every run.
///
/// # Errors
///
/// Returns a one-line message echoing the rejected value.
pub fn parse_store_key_seed(value: &str) -> Result<u64, String> {
    let t = value.trim();
    let parsed = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        u64::from_str_radix(&hex.replace('_', ""), 16).ok()
    } else {
        t.replace('_', "").parse::<u64>().ok()
    };
    parsed.ok_or_else(|| {
        format!(
            "SBST_STORE_KEY must be a 64-bit seed (decimal or 0x-hex), \
             got `{value}`; using the default key seed"
        )
    })
}

/// Store MAC-key seed from `SBST_STORE_KEY`, through the shared warning
/// path: unset → `None` (callers fall back to their built-in default
/// seed), invalid → `None` plus a one-line stderr warning echoing the
/// rejected value.
pub fn store_key_seed_from_env() -> Option<u64> {
    std::env::var("SBST_STORE_KEY")
        .ok()
        .and_then(|v| match parse_store_key_seed(&v) {
            Ok(seed) => Some(seed),
            Err(msg) => {
                eprintln!("warning: {msg}");
                None
            }
        })
}

/// Finds the value of the flag `name` in an argument list (as produced
/// by `std::env::args().skip(1)`): `--name v` or `--name=v`. Returns
/// `None` when the flag is absent.
///
/// # Errors
///
/// Returns a one-line message when the flag is present without a value.
pub fn flag_value<I, S>(args: I, name: &str) -> Result<Option<String>, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let arg = arg.as_ref();
        let value = if arg == name {
            iter.next().map(|v| v.as_ref().to_owned())
        } else if let Some(v) = arg.strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
            Some(v.to_owned())
        } else {
            continue;
        };
        return match value {
            Some(v) if !v.is_empty() => Ok(Some(v)),
            _ => Err(format!("{name} requires a value")),
        };
    }
    Ok(None)
}

/// Parses the flag `name` (see [`flag_value`]) as an unsigned integer no
/// smaller than `min`.
///
/// # Errors
///
/// Returns a one-line message when the flag is missing its value or the
/// value is not an integer of at least `min`.
pub fn uint_flag<I, S>(args: I, name: &str, min: u64) -> Result<Option<u64>, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    flag_value(args, name)?
        .map(|value| match value.trim().parse::<u64>() {
            Ok(n) if n >= min => Ok(n),
            _ => {
                let want = match min {
                    0 => "an unsigned 64-bit integer".to_owned(),
                    1 => "a positive integer".to_owned(),
                    _ => format!("an integer >= {min}"),
                };
                Err(format!("{name} must be {want}, got `{value}`"))
            }
        })
        .transpose()
}

/// Extracts the `--threads <n>` flag: a positive worker count applied to
/// both the fault simulator and the PODEM search pool.
///
/// # Errors
///
/// Returns a one-line message when the flag is missing its value or the
/// value is not a positive integer.
pub fn threads_flag<I, S>(args: I) -> Result<Option<usize>, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    Ok(uint_flag(args, "--threads", 1)?.map(|n| n as usize))
}

/// Extracts the `--fault-model <name>` flag: the *headline* fault model
/// for the report's FC column (both models are always graded and
/// serialized). Names are the [`FaultModel::from_name`] spellings
/// (`stuck-at`/`sa`, `transition`/`transition-delay`/`td`).
///
/// # Errors
///
/// Returns a one-line message when the flag is missing its value or the
/// value names no known model.
pub fn fault_model_flag<I, S>(args: I) -> Result<Option<FaultModel>, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    flag_value(args, "--fault-model")?
        .map(|value| {
            FaultModel::from_name(&value).ok_or_else(|| {
                format!("--fault-model must be `stuck-at` or `transition`, got `{value}`")
            })
        })
        .transpose()
}

/// Extracts the `--json <path>` flag: where to write the run report.
///
/// # Errors
///
/// Returns a one-line message when the flag is given without a path.
pub fn json_output_path<I, S>(args: I) -> Result<Option<PathBuf>, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    Ok(flag_value(args, "--json")?.map(PathBuf::from))
}

/// Writes a [`RunReport`] where [`json_output_path`] pointed, if anywhere.
///
/// Exits the process with an error message on I/O failure — bench binaries
/// must not silently produce no report when one was asked for.
pub fn write_report_if_requested(report: &RunReport, path: Option<&std::path::Path>) {
    if let Some(path) = path {
        if let Err(e) = report.write_to_path(path) {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_flag_forms() {
        assert_eq!(json_output_path(["--smoke"] as [&str; 1]).unwrap(), None);
        assert_eq!(
            json_output_path(["--smoke", "--json", "out.json"]).unwrap(),
            Some(PathBuf::from("out.json"))
        );
        assert_eq!(
            json_output_path(["--json=x/y.json"] as [&str; 1]).unwrap(),
            Some(PathBuf::from("x/y.json"))
        );
        assert!(json_output_path(["--json"] as [&str; 1]).is_err());
        assert!(json_output_path(["--json="] as [&str; 1]).is_err());
    }

    #[test]
    fn flag_value_forms() {
        assert_eq!(flag_value(["--smoke"], "--ndjson").unwrap(), None);
        assert_eq!(
            flag_value(["--ndjson", "t.ndjson"], "--ndjson").unwrap(),
            Some("t.ndjson".to_owned())
        );
        assert_eq!(
            flag_value(["--ndjson=t.ndjson"], "--ndjson").unwrap(),
            Some("t.ndjson".to_owned())
        );
        // A longer flag sharing the prefix is a different flag.
        assert_eq!(flag_value(["--ndjsonx=1"], "--ndjson").unwrap(), None);
        assert!(flag_value(["--ndjson"], "--ndjson").is_err());
        assert!(flag_value(["--ndjson="], "--ndjson").is_err());
    }

    /// 0 is a valid fleet seed, while node and worker counts must be
    /// positive.
    #[test]
    fn uint_flag_accepts_zero_seed_and_rejects_zero_counts() {
        assert_eq!(uint_flag(["--seed", "0"], "--seed", 0).unwrap(), Some(0));
        assert_eq!(
            uint_flag(["--seed=18446744073709551615"], "--seed", 0).unwrap(),
            Some(u64::MAX)
        );
        let err = uint_flag(["--seed", "-1"], "--seed", 0).unwrap_err();
        assert_eq!(err, "--seed must be an unsigned 64-bit integer, got `-1`");
        assert_eq!(uint_flag(["--nodes", "5"], "--nodes", 1).unwrap(), Some(5));
        let err = uint_flag(["--nodes", "0"], "--nodes", 1).unwrap_err();
        assert_eq!(err, "--nodes must be a positive integer, got `0`");
    }

    #[test]
    fn threads_flag_forms() {
        assert_eq!(threads_flag(["--smoke"] as [&str; 1]).unwrap(), None);
        assert_eq!(threads_flag(["--threads", "2"]).unwrap(), Some(2));
        assert_eq!(threads_flag(["--threads=7"] as [&str; 1]).unwrap(), Some(7));
        assert!(threads_flag(["--threads"] as [&str; 1]).is_err());
        assert!(threads_flag(["--threads", "zero"]).is_err());
        assert!(threads_flag(["--threads=0"] as [&str; 1]).is_err());
    }

    #[test]
    fn fault_model_flag_forms() {
        assert_eq!(fault_model_flag(["--smoke"] as [&str; 1]).unwrap(), None);
        assert_eq!(
            fault_model_flag(["--fault-model", "transition"]).unwrap(),
            Some(FaultModel::TransitionDelay)
        );
        assert_eq!(
            fault_model_flag(["--fault-model=stuck-at"] as [&str; 1]).unwrap(),
            Some(FaultModel::StuckAt)
        );
        assert_eq!(
            fault_model_flag(["--fault-model=td"] as [&str; 1]).unwrap(),
            Some(FaultModel::TransitionDelay)
        );
        assert!(fault_model_flag(["--fault-model"] as [&str; 1]).is_err());
        let err = fault_model_flag(["--fault-model", "bridging"]).unwrap_err();
        assert!(err.contains("`bridging`"), "message: {err}");
    }

    #[test]
    fn store_key_seed_parsing() {
        assert_eq!(parse_store_key_seed("42"), Ok(42));
        assert_eq!(parse_store_key_seed(" 0xDEAD_BEEF "), Ok(0xDEAD_BEEF));
        assert_eq!(parse_store_key_seed("0Xff"), Ok(255));
        assert_eq!(parse_store_key_seed("1_000"), Ok(1000));
        for bad in ["", "key", "-1", "0x", "1.5"] {
            let err = parse_store_key_seed(bad).unwrap_err();
            assert!(err.contains(&format!("`{bad}`")), "message: {err}");
            assert!(err.contains("SBST_STORE_KEY"), "message: {err}");
        }
    }

    /// Pins the exact warning for an invalid `SBST_STORE_KEY` value: name
    /// the variable, echo the rejected value in backticks, state the
    /// fallback.
    #[test]
    fn bad_store_key_warning_is_pinned() {
        assert_eq!(
            parse_store_key_seed("bogus").unwrap_err(),
            "SBST_STORE_KEY must be a 64-bit seed (decimal or 0x-hex), \
             got `bogus`; using the default key seed"
        );
    }
}
