//! # dfss-bench — the experiment harness
//!
//! One binary per table and figure of the paper (README, "Figure / table
//! binaries", has the index), plus the two host wall-clock binaries,
//! `speedup` and `serving`. This library holds the shared plumbing: aligned
//! text tables, CSV and JSON output under `results/`, the one `--check`
//! front end and the header and field checks every JSON artifact shares,
//! and the common model-training helpers the accuracy experiments reuse.
//!
//! Environment knobs:
//! * `DFSS_QUICK=1` — shrink grids/seeds for a fast smoke run.
//! * `DFSS_SEEDS=<n>` — override the number of seeds for the ± CI tables.
//! * `DFSS_RESULTS=<dir>` — write artifacts there instead of `results/`.

use json::Json;
use std::fmt::Write as _;
use std::path::PathBuf;

pub mod json;
pub mod train;

/// Schema version of the `results/*.json` report artifacts.
pub const REPORT_SCHEMA_VERSION: f64 = 1.0;

/// Directory for CSV artifacts (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("DFSS_RESULTS").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Write `doc` to `results/<name>.json`.
pub fn save_json(name: &str, doc: &Json) {
    let path = results_dir().join(format!("{name}.json"));
    std::fs::write(&path, doc.render()).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("[saved {}]", path.display());
}

/// Quick-mode flag.
pub fn quick() -> bool {
    std::env::var("DFSS_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
}

/// The mode an artifact records: `"quick"` under `DFSS_QUICK`, else `"full"`.
pub fn mode() -> &'static str {
    if quick() {
        "quick"
    } else {
        "full"
    }
}

/// The host CPU an artifact was timed on: the first `model name` line of
/// `/proc/cpuinfo`, or `"unknown"` where there is none.
fn host() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .filter(|line| line.starts_with("model name"))
                .find_map(|line| line.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Round to three decimals, the precision the host artifacts record.
pub fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Seed count for mean ± CI tables (paper: 8 runs).
pub fn n_seeds(default: usize) -> usize {
    std::env::var("DFSS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick() { 2 } else { default })
}

/// An aligned text table that also serialises to CSV.
pub struct Report {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Report {
        Report {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.columns.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// Print to stdout and save CSV + schema-stable JSON under
    /// `results/<name>.{csv,json}` (the JSON is what trajectory tooling
    /// diffs across PRs; validate with the binary's `--check` flag).
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.columns.join(","));
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|c| {
                    if c.contains(',') {
                        format!("\"{c}\"")
                    } else {
                        c.clone()
                    }
                })
                .collect();
            let _ = writeln!(csv, "{}", escaped.join(","));
        }
        let path = results_dir().join(format!("{name}.csv"));
        std::fs::write(&path, csv).expect("write csv");
        println!("[saved {}]", path.display());

        save_json(name, &self.to_json(name));
    }

    /// The report as its JSON artifact document.
    pub fn to_json(&self, name: &str) -> Json {
        Json::obj(vec![
            ("schema_version", Json::Num(REPORT_SCHEMA_VERSION)),
            ("artifact", Json::Str(name.into())),
            ("title", Json::Str(self.title.clone())),
            (
                "columns",
                Json::Arr(self.columns.iter().map(|c| Json::Str(c.clone())).collect()),
            ),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|row| Json::Arr(row.iter().map(|c| Json::Str(c.clone())).collect()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The fields a host wall-clock artifact (`bench_kernels`,
/// `bench_attention`, `bench_serving`) opens with: its schema version and
/// name, the mode, the pool width it ran at and the host CPU.
pub fn artifact_header(schema_version: f64, artifact: &str) -> Vec<(&'static str, Json)> {
    vec![
        ("schema_version", Json::Num(schema_version)),
        ("artifact", Json::Str(artifact.into())),
        ("mode", Json::Str(mode().into())),
        ("threads", Json::Num(rayon::current_num_threads() as f64)),
        ("host", Json::Str(host())),
    ]
}

/// Check that `doc` is version `schema_version` of `artifact`.
fn check_schema(doc: &Json, schema_version: f64, artifact: &str) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing schema_version")?;
    if version != schema_version {
        return Err(format!("schema_version {version} != {schema_version}"));
    }
    match doc.get("artifact").and_then(Json::as_str) {
        Some(a) if a == artifact => Ok(()),
        other => Err(format!("artifact {other:?} != {artifact:?}")),
    }
}

/// Check the header [`artifact_header`] writes: version and name as
/// expected, `mode` one of `quick` and `full`, a numeric `threads` and a
/// `host`. Returns the mode, which decides the artifact's full-mode gates.
pub fn check_header<'a>(
    doc: &'a Json,
    schema_version: f64,
    artifact: &str,
) -> Result<&'a str, String> {
    check_schema(doc, schema_version, artifact)?;
    let mode = doc
        .get("mode")
        .and_then(Json::as_str)
        .ok_or("missing mode")?;
    if mode != "quick" && mode != "full" {
        return Err(format!("mode `{mode}` not in {{quick, full}}"));
    }
    check_numbers(doc, artifact, &["threads"])?;
    doc.get("host")
        .and_then(Json::as_str)
        .ok_or("missing host")?;
    Ok(mode)
}

/// Check that each of `fields` in `entry` is a finite, non-negative number;
/// `what` names the entry in the error.
pub fn check_numbers(entry: &Json, what: &str, fields: &[&str]) -> Result<(), String> {
    for &field in fields {
        match entry.get(field).and_then(Json::as_f64) {
            None => return Err(format!("{what}: missing numeric {field}")),
            Some(x) if !x.is_finite() || x < 0.0 => {
                return Err(format!("{what}: {field} = {x} not a finite non-negative"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// The array `doc.<field>`, which must exist and hold at least one item.
pub fn check_array<'a>(doc: &'a Json, field: &str) -> Result<&'a [Json], String> {
    match doc.get(field).and_then(Json::as_arr) {
        None => Err(format!("missing {field} array")),
        Some([]) => Err(format!("{field} array is empty")),
        Some(items) => Ok(items),
    }
}

/// Validate a `results/<artifact>.json` report document against the shared
/// schema: version, matching artifact name, string columns, and every row
/// exactly as wide as the header. Returns the row count.
pub fn check_report(doc: &Json, artifact: &str) -> Result<usize, String> {
    check_schema(doc, REPORT_SCHEMA_VERSION, artifact)?;
    doc.get("title")
        .and_then(Json::as_str)
        .ok_or("missing title")?;
    let columns = doc
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or("missing columns array")?;
    if columns.is_empty() || !columns.iter().all(|c| c.as_str().is_some()) {
        return Err("columns must be a non-empty string array".into());
    }
    let rows = check_array(doc, "rows")?;
    for (i, row) in rows.iter().enumerate() {
        let cells = row.as_arr().ok_or(format!("row {i} is not an array"))?;
        if cells.len() != columns.len() || !cells.iter().all(|c| c.as_str().is_some()) {
            return Err(format!(
                "row {i}: expected {} string cells, got {}",
                columns.len(),
                cells.len()
            ));
        }
    }
    Ok(rows.len())
}

/// The `--check <path>` front end of every binary that writes a JSON
/// artifact. Without arguments it returns `false`: the caller runs its
/// experiment. With `--check <path>` it parses the file, applies `check`
/// (which returns a one-line summary), prints the verdict and returns
/// `true`; a failed check exits 1. Any other command line exits 2 with
/// usage, so a malformed invocation never falls through to a run that
/// would overwrite a checked-in artifact.
pub fn handle_check(check: impl FnOnce(&Json) -> Result<String, String>) -> bool {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 1 {
        return false;
    }
    if args.len() != 3 || args[1] != "--check" {
        eprintln!("usage: {} [--check <artifact.json>]", args[0]);
        std::process::exit(2);
    }
    let path = &args[2];
    let verdict = std::fs::read_to_string(path)
        .map_err(|e| format!("read {path}: {e}"))
        .and_then(|text| Json::parse(&text))
        .and_then(|doc| check(&doc));
    match verdict {
        Ok(summary) => {
            println!("{path}: schema OK ({summary})");
            true
        }
        Err(e) => {
            eprintln!("schema validation failed: {e}");
            std::process::exit(1);
        }
    }
}

/// [`handle_check`] for a figure/table binary's report artifact.
pub fn handle_report_check(artifact: &str) -> bool {
    handle_check(|doc| check_report(doc, artifact).map(|rows| format!("{rows} rows")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_aligned() {
        let mut r = Report::new("t", &["a", "bbbb"]);
        r.row(vec!["x".into(), "y".into()]);
        r.row(vec!["long".into(), "z".into()]);
        let s = r.render();
        assert!(s.contains("== t =="));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn report_checks_columns() {
        let mut r = Report::new("t", &["a"]);
        r.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn report_json_round_trips_through_check() {
        let mut r = Report::new("t", &["a", "b"]);
        r.row(vec!["1".into(), "2".into()]);
        let doc = Json::parse(&r.to_json("figX").render()).unwrap();
        assert_eq!(check_report(&doc, "figX"), Ok(1));
        // Wrong artifact name must fail.
        assert!(check_report(&doc, "figY").is_err());
    }

    #[test]
    fn check_report_rejects_ragged_rows() {
        let doc = Json::obj(vec![
            ("schema_version", Json::Num(REPORT_SCHEMA_VERSION)),
            ("artifact", Json::Str("t".into())),
            ("title", Json::Str("t".into())),
            (
                "columns",
                Json::Arr(vec![Json::Str("a".into()), Json::Str("b".into())]),
            ),
            (
                "rows",
                Json::Arr(vec![Json::Arr(vec![Json::Str("1".into())])]),
            ),
        ]);
        let err = check_report(&doc, "t").unwrap_err();
        assert!(err.contains("row 0"), "{err}");
    }

    /// A host artifact as the binaries write it: the header and one entry.
    fn host_doc() -> Json {
        let mut fields = artifact_header(3.0, "bench_x");
        fields.push(("n", Json::Num(512.0)));
        fields.push(("min_ms", Json::Num(0.0)));
        Json::obj(fields)
    }

    /// `doc` with `key` set to `value`, or without `key` when `value` is
    /// `None`.
    fn with_field(doc: &Json, key: &str, value: Option<Json>) -> Json {
        let Json::Obj(fields) = doc else {
            panic!("not an object")
        };
        let mut fields: Vec<(String, Json)> =
            fields.iter().filter(|(k, _)| k != key).cloned().collect();
        fields.extend(value.map(|v| (key.to_string(), v)));
        Json::Obj(fields)
    }

    #[test]
    fn check_header_accepts_the_header_it_writes() {
        let doc = Json::parse(&host_doc().render()).unwrap();
        assert_eq!(check_header(&doc, 3.0, "bench_x"), Ok(mode()));
        assert_eq!(check_numbers(&doc, "bench_x", &["n", "min_ms"]), Ok(()));
        assert!(doc.get("host").and_then(Json::as_str).is_some());
    }

    #[test]
    fn check_header_names_each_bad_field() {
        let doc = host_doc();
        for (key, value) in [
            ("schema_version", Some(Json::Num(2.0))),
            ("artifact", Some(Json::Str("bench_y".into()))),
            ("mode", Some(Json::Str("fast".into()))),
            ("threads", None),
            ("threads", Some(Json::Str("2".into()))),
            ("host", None),
        ] {
            let bad = with_field(&doc, key, value);
            let err = check_header(&bad, 3.0, "bench_x").unwrap_err();
            assert!(err.contains(key), "{key}: {err}");
        }
    }

    #[test]
    fn check_array_requires_a_non_empty_array() {
        let doc = Json::obj(vec![
            ("rows", Json::Arr(vec![Json::Null])),
            ("empty", Json::Arr(vec![])),
            ("scalar", Json::Num(1.0)),
        ]);
        assert_eq!(check_array(&doc, "rows").map(<[Json]>::len), Ok(1));
        for field in ["empty", "scalar", "absent"] {
            let err = check_array(&doc, field).unwrap_err();
            assert!(err.contains(field), "{err}");
        }
    }

    #[test]
    fn check_numbers_rejects_nan_negative_and_missing_fields() {
        let doc = host_doc();
        for (value, shown) in [
            (Some(Json::Num(f64::NAN)), "NaN"),
            (Some(Json::Num(f64::INFINITY)), "inf"),
            (Some(Json::Num(-0.5)), "-0.5"),
            (Some(Json::Str("0.5".into())), "missing"),
            (None, "missing"),
        ] {
            let bad = with_field(&doc, "min_ms", value);
            let err = check_numbers(&bad, "entry 3", &["n", "min_ms"]).unwrap_err();
            assert!(err.starts_with("entry 3: "), "{err}");
            assert!(err.contains("min_ms") && err.contains(shown), "{err}");
        }
    }
}
