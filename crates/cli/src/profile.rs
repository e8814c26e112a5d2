//! The `tmfrt profile` subcommand: offline Chrome-trace analysis.
//!
//! Wraps [`engine::profile`] for the command line. Inputs are trace
//! files produced anywhere in the repo — `tmfrt map --trace-out`,
//! `table1 --trace-dir`, the serve `/jobs/<id>/trace` endpoint — given
//! as file paths or directories (a directory contributes every
//! `*.trace.json` file inside it, sorted, so multi-circuit trace dirs
//! aggregate deterministically).
//!
//! Stream discipline matches the rest of `tmfrt`: the report goes to
//! **stdout** only; diagnostics (files read, folded-stack writes,
//! errors) are structured [`engine::log`] events on stderr, silenced by
//! `-q`.
//!
//! Modes:
//!
//! * `tmfrt profile <PATH>...` — self/total per-span report;
//! * `--folded FILE` — additionally write folded stacks
//!   (`flamegraph.pl` / speedscope input) to `FILE`;
//! * `tmfrt profile --diff <BASE> <CAND>` — span-attributed
//!   differential: per-span self-time deltas plus a `top regression:`
//!   trailer naming the span that got slowest.

use engine::log;
use engine::profile::{diff, render_diff, Profile};
use engine::JsonValue;
use std::path::{Path, PathBuf};

/// Parsed `tmfrt profile` command line.
#[derive(Debug, Clone, Default)]
pub struct ProfileArgs {
    /// Trace files or directories to aggregate (report mode).
    pub inputs: Vec<String>,
    /// `--diff BASE CAND`: compare two traces/directories instead.
    pub diff: Option<(String, String)>,
    /// `--folded FILE`: also write folded stacks here (report mode).
    pub folded_out: Option<String>,
    /// Suppress diagnostics on stderr.
    pub quiet: bool,
}

impl ProfileArgs {
    /// Parses the arguments after `profile`.
    ///
    /// # Errors
    ///
    /// Returns a usage message on unknown flags, missing operands, or
    /// mixing `--diff` with extra inputs.
    pub fn parse(raw: &[String]) -> Result<ProfileArgs, String> {
        let usage = "usage: tmfrt profile <trace.json|dir>... [--folded FILE] [-q]\n\
                            tmfrt profile --diff <base> <cand> [-q]";
        let mut args = ProfileArgs::default();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--diff" => {
                    let base = it.next().ok_or(usage)?.clone();
                    let cand = it.next().ok_or(usage)?.clone();
                    args.diff = Some((base, cand));
                }
                "--folded" => {
                    args.folded_out = Some(it.next().ok_or(usage)?.clone());
                }
                "-q" | "--quiet" => args.quiet = true,
                "-h" | "--help" => return Err(usage.to_string()),
                other if !other.starts_with('-') => args.inputs.push(other.to_string()),
                other => return Err(format!("unknown flag `{other}`\n{usage}")),
            }
        }
        match (&args.diff, args.inputs.is_empty()) {
            (None, true) => Err(usage.to_string()),
            (Some(_), false) => Err(format!("--diff takes exactly two operands\n{usage}")),
            _ => {
                if args.diff.is_some() && args.folded_out.is_some() {
                    return Err(format!("--folded is not available with --diff\n{usage}"));
                }
                Ok(args)
            }
        }
    }
}

/// Expands one operand into trace file paths: a file stands for itself,
/// a directory for its `*.trace.json` files sorted by name.
fn trace_files(operand: &str) -> Result<Vec<PathBuf>, String> {
    let path = Path::new(operand);
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("reading directory `{operand}`: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".trace.json"))
            })
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("directory `{operand}` has no *.trace.json files"));
        }
        Ok(files)
    } else {
        Ok(vec![path.to_path_buf()])
    }
}

/// Loads and folds every trace under `operands` into one profile.
fn load_profile(operands: &[String]) -> Result<Profile, String> {
    let mut profile = Profile::new();
    for operand in operands {
        for file in trace_files(operand)? {
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("reading `{}`: {e}", file.display()))?;
            let doc = JsonValue::parse(&text)
                .map_err(|e| format!("`{}` is not valid JSON: {e}", file.display()))?;
            profile
                .add_trace(&doc)
                .map_err(|e| format!("`{}`: {e}", file.display()))?;
            log::debug(
                "tmfrt::profile",
                "folded trace",
                &[("path", JsonValue::str(file.display().to_string()))],
            );
        }
    }
    Ok(profile)
}

/// Runs the subcommand and returns the stdout report.
///
/// # Errors
///
/// Returns a message on I/O failures, invalid JSON, or malformed
/// (unbalanced, crossed or backwards-running) trace streams — the
/// strictness CI gates on.
pub fn run_profile(args: &ProfileArgs) -> Result<String, String> {
    if let Some((base_op, cand_op)) = &args.diff {
        let base = load_profile(std::slice::from_ref(base_op))?;
        let cand = load_profile(std::slice::from_ref(cand_op))?;
        let rows = diff(&base, &cand);
        return Ok(render_diff(&rows));
    }
    let profile = load_profile(&args.inputs)?;
    if let Some(path) = &args.folded_out {
        std::fs::write(path, profile.render_folded())
            .map_err(|e| format!("writing `{path}`: {e}"))?;
        log::info(
            "tmfrt::profile",
            "wrote folded stacks",
            &[
                ("path", JsonValue::str(path.clone())),
                ("stacks", JsonValue::UInt(profile.folded.len() as u64)),
            ],
        );
    }
    Ok(profile.render_report())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tmfrt_profile_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_trace(path: &Path, sweep_end: u64) {
        let text = format!(
            r#"{{"traceEvents": [
                {{"name":"phi_search","cat":"tmfrt","ph":"B","ts":0,"pid":1,"tid":1}},
                {{"name":"frtcheck_sweep","cat":"tmfrt","ph":"B","ts":10,"pid":1,"tid":1}},
                {{"name":"frtcheck_sweep","cat":"tmfrt","ph":"E","ts":{sweep_end},"pid":1,"tid":1}},
                {{"name":"phi_search","cat":"tmfrt","ph":"E","ts":{},"pid":1,"tid":1}}
            ], "displayTimeUnit": "ms", "dropped_events": 0}}"#,
            sweep_end + 40
        );
        std::fs::write(path, text).unwrap();
    }

    #[test]
    fn parse_modes_and_usage_errors() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = ProfileArgs::parse(&s(&["t.json", "--folded", "f.txt", "-q"])).unwrap();
        assert_eq!(a.inputs, vec!["t.json"]);
        assert_eq!(a.folded_out.as_deref(), Some("f.txt"));
        assert!(a.quiet);
        let a = ProfileArgs::parse(&s(&["--diff", "a.json", "b.json"])).unwrap();
        assert_eq!(a.diff, Some(("a.json".into(), "b.json".into())));
        assert!(ProfileArgs::parse(&s(&[])).is_err());
        assert!(ProfileArgs::parse(&s(&["--diff", "a.json"])).is_err());
        assert!(ProfileArgs::parse(&s(&["--diff", "a.json", "b.json", "c.json"])).is_err());
        assert!(ProfileArgs::parse(&s(&["--bogus"])).is_err());
        assert!(ProfileArgs::parse(&s(&["--diff", "a", "b", "--folded", "f"])).is_err());
    }

    #[test]
    fn report_on_file_and_directory() {
        let dir = scratch("report");
        write_trace(&dir.join("a.trace.json"), 60);
        write_trace(&dir.join("b.trace.json"), 60);
        // Non-trace files in the directory are ignored.
        std::fs::write(dir.join("notes.txt"), "not a trace").unwrap();
        let args = ProfileArgs {
            inputs: vec![dir.display().to_string()],
            ..ProfileArgs::default()
        };
        let report = run_profile(&args).unwrap();
        assert!(report.contains("frtcheck_sweep"));
        assert!(report.contains("traces=2"));
    }

    #[test]
    fn folded_output_written() {
        let dir = scratch("folded");
        let trace = dir.join("a.trace.json");
        write_trace(&trace, 60);
        let folded = dir.join("stacks.folded");
        let args = ProfileArgs {
            inputs: vec![trace.display().to_string()],
            folded_out: Some(folded.display().to_string()),
            ..ProfileArgs::default()
        };
        run_profile(&args).unwrap();
        let text = std::fs::read_to_string(&folded).unwrap();
        assert!(text.contains("phi_search;frtcheck_sweep 50"), "{text}");
    }

    #[test]
    fn diff_names_the_regressed_phase() {
        let dir = scratch("diff");
        let base = dir.join("base.trace.json");
        let cand = dir.join("cand.trace.json");
        write_trace(&base, 60); // sweep self 50
        write_trace(&cand, 110); // sweep self 100
        let args = ProfileArgs {
            diff: Some((base.display().to_string(), cand.display().to_string())),
            ..ProfileArgs::default()
        };
        let report = run_profile(&args).unwrap();
        assert!(
            report.contains("top regression: frtcheck_sweep"),
            "{report}"
        );
    }

    #[test]
    fn malformed_inputs_are_errors() {
        let dir = scratch("bad");
        let bad = dir.join("bad.trace.json");
        std::fs::write(
            &bad,
            "{\"traceEvents\": [{\"ph\": \"E\", \"name\": \"x\", \"ts\": 1}]}",
        )
        .unwrap();
        let args = ProfileArgs {
            inputs: vec![bad.display().to_string()],
            ..ProfileArgs::default()
        };
        assert!(run_profile(&args).unwrap_err().contains("empty stack"));
        std::fs::write(&bad, "not json").unwrap();
        assert!(run_profile(&args).unwrap_err().contains("not valid JSON"));
        let args = ProfileArgs {
            inputs: vec![dir.join("missing.json").display().to_string()],
            ..ProfileArgs::default()
        };
        assert!(run_profile(&args).is_err());
        // An empty directory is an error, not a silent empty report.
        let empty = scratch("empty");
        let args = ProfileArgs {
            inputs: vec![empty.display().to_string()],
            ..ProfileArgs::default()
        };
        assert!(run_profile(&args).unwrap_err().contains("no *.trace.json"));
    }
}
