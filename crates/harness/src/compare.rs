//! Cross-run regression diffing for JSON metric artifacts.
//!
//! `spritely compare a.json b.json` turns the committed `baselines/`
//! snapshots and the repo-root `BENCH_*.json` perf ledgers into an
//! enforced gate: parse both documents ([`spritely_metrics::json`]),
//! flatten every leaf to a dotted path
//! (`server_io.disk_writes`, `procs.3.p95_us`, …), and flag any numeric
//! leaf whose relative change exceeds the threshold, plus any key that
//! appeared or disappeared.
//!
//! The simulation is deterministic and no artifact carries a host-clock
//! reading, so two runs of the same code are byte-identical and the gate
//! (threshold 0) cannot flake.

use std::fmt::Write as _;

use spritely_metrics::json::{self, Value};
use spritely_sim::{Map, Set};

/// One flattened leaf: dotted path plus its scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    Num(f64),
    Str(String),
}

/// Flattens a parsed document to `(dotted path, leaf)` pairs in
/// document order. Array elements use their index as a path segment;
/// arrays of objects with a recognizable name key (`proc`, `op`) use
/// that name instead, so reordering-insensitive rows still line up.
pub fn flatten(v: &Value) -> Vec<(String, Leaf)> {
    let mut out = Vec::new();
    walk("", v, &mut out);
    out
}

fn walk(prefix: &str, v: &Value, out: &mut Vec<(String, Leaf)>) {
    let join = |key: &str| {
        if prefix.is_empty() {
            key.to_string()
        } else {
            format!("{prefix}.{key}")
        }
    };
    match v {
        Value::Null => {}
        Value::Bool(b) => out.push((prefix.to_string(), Leaf::Num(*b as u8 as f64))),
        Value::Num(n) => out.push((prefix.to_string(), Leaf::Num(*n))),
        Value::Str(s) => out.push((prefix.to_string(), Leaf::Str(s.clone()))),
        Value::Obj(fields) => {
            for (k, v) in fields {
                walk(&join(k), v, out);
            }
        }
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let seg = row_name(item).unwrap_or_else(|| i.to_string());
                walk(&join(&seg), item, out);
            }
        }
    }
}

/// A stable row label for arrays of named records.
fn row_name(v: &Value) -> Option<String> {
    ["proc", "op", "name", "id"]
        .iter()
        .find_map(|name_key| match v.get(name_key)? {
            Value::Str(s) => Some(s.clone()),
            Value::Num(n) => Some(format!("{n}")),
            _ => None,
        })
}

/// One flagged difference between the two documents.
#[derive(Debug, Clone)]
pub struct Diff {
    /// Dotted path of the leaf.
    pub path: String,
    /// Rendered old value (`-` when the key is new).
    pub a: String,
    /// Rendered new value (`-` when the key disappeared).
    pub b: String,
    /// Relative change for numeric leaves (`|b-a| / max(|a|,|b|)`).
    pub rel: Option<f64>,
}

/// Result of diffing two artifacts.
pub struct CompareReport {
    /// Flagged regressions/changes, in document order of `a`.
    pub diffs: Vec<Diff>,
    /// Leaves of the first document compared.
    pub compared: usize,
}

impl CompareReport {
    /// True when nothing was flagged.
    pub fn ok(&self) -> bool {
        self.diffs.is_empty()
    }

    /// Human-readable rendering, one line per flagged leaf.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.ok() {
            let _ = writeln!(
                out,
                "compare: OK ({} leaves within threshold)",
                self.compared
            );
            return out;
        }
        let _ = writeln!(
            out,
            "compare: {} of {} leaves out of threshold",
            self.diffs.len(),
            self.compared
        );
        for d in &self.diffs {
            match d.rel {
                Some(rel) => {
                    let _ = writeln!(
                        out,
                        "  {:<48} {} -> {}  ({:+.1}%)",
                        d.path,
                        d.a,
                        d.b,
                        rel * 100.0
                    );
                }
                None => {
                    let _ = writeln!(out, "  {:<48} {} -> {}", d.path, d.a, d.b);
                }
            }
        }
        out
    }
}

/// Diffs two JSON artifact texts: a numeric leaf is flagged when its
/// relative change exceeds `rel_threshold` (0 demands equality).
pub fn compare_json(
    a_text: &str,
    b_text: &str,
    rel_threshold: f64,
) -> Result<CompareReport, String> {
    let a = flatten(&json::parse(a_text).map_err(|e| format!("first document: {e}"))?);
    let b = flatten(&json::parse(b_text).map_err(|e| format!("second document: {e}"))?);
    let b_map: Map<&str, &Leaf> = b.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let a_keys: Set<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
    let render = |l: Option<&Leaf>| match l {
        None => "-".to_string(),
        Some(Leaf::Num(n)) => format!("{n}"),
        Some(Leaf::Str(s)) => format!("{s:?}"),
    };
    let diff = |path: &str, a: Option<&Leaf>, b: Option<&Leaf>, rel: Option<f64>| Diff {
        path: path.to_string(),
        a: render(a),
        b: render(b),
        rel,
    };
    let mut diffs = Vec::new();
    for (path, va) in &a {
        let vb = b_map.get(path.as_str()).copied();
        match (va, vb) {
            (Leaf::Num(x), Some(Leaf::Num(y))) => {
                let denom = x.abs().max(y.abs());
                let rel = if denom == 0.0 {
                    0.0
                } else {
                    (y - x).abs() / denom
                };
                if rel > rel_threshold {
                    let signed = if y >= x { rel } else { -rel };
                    diffs.push(diff(path, Some(va), vb, Some(signed)));
                }
            }
            // A missing key, a changed string or a changed type.
            _ if vb != Some(va) => diffs.push(diff(path, Some(va), vb, None)),
            _ => {}
        }
    }
    for (path, vb) in &b {
        if !a_keys.contains(path.as_str()) {
            diffs.push(diff(path, None, Some(vb), None));
        }
    }
    Ok(CompareReport {
        diffs,
        compared: a.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_documents_compare_clean() {
        let doc = r#"{"a": 1, "b": {"c": [1, 2, 3]}, "s": "x"}"#;
        let r = compare_json(doc, doc, 0.10).unwrap();
        assert!(r.ok(), "{}", r.render());
        assert_eq!(r.compared, 5);
    }

    #[test]
    fn small_jitter_passes_large_regression_fails() {
        let a = r#"{"latency_us": 1000, "count": 50}"#;
        let ok = r#"{"latency_us": 1050, "count": 50}"#;
        let bad = r#"{"latency_us": 1200, "count": 50}"#;
        assert!(compare_json(a, ok, 0.10).unwrap().ok());
        let r = compare_json(a, bad, 0.10).unwrap();
        assert!(!r.ok());
        assert_eq!(r.diffs[0].path, "latency_us");
        assert!(r.diffs[0].rel.unwrap() > 0.10);
        // The one threshold holds every path — no key is exempt by name
        // — and the gate's 0 flags the jitter 10 % let through.
        let r = compare_json(a, ok, 0.0).unwrap();
        assert_eq!((r.diffs.len(), r.compared), (1, 2));
        let (a, b) = (r#"{"wall_ms": 100}"#, r#"{"wall_ms": 900}"#);
        assert!(!compare_json(a, b, 0.10).unwrap().ok());
    }

    #[test]
    fn added_and_missing_keys_are_flagged() {
        let a = r#"{"x": 1, "gone": 2}"#;
        let b = r#"{"x": 1, "new": 3}"#;
        let r = compare_json(a, b, 0.10).unwrap();
        assert_eq!(r.diffs.len(), 2);
        assert!(r.diffs.iter().any(|d| d.path == "gone" && d.b == "-"));
        assert!(r.diffs.iter().any(|d| d.path == "new" && d.a == "-"));
    }

    #[test]
    fn named_array_rows_line_up_by_name() {
        let a = r#"{"procs": [{"proc": "read", "n": 10}, {"proc": "write", "n": 5}]}"#;
        let b = r#"{"procs": [{"proc": "write", "n": 5}, {"proc": "read", "n": 10}]}"#;
        let r = compare_json(a, b, 0.10).unwrap();
        assert!(r.ok(), "{}", r.render());
    }

    #[test]
    fn real_snapshot_roundtrips() {
        // A StatsSnapshot-shaped document parses and flattens.
        let doc = r#"{"protocol":"SNFS","rpc_total":123,"clients":[{"id":1,"cache_hits":10,"cache_misses":2,"dirty_blocks":0}],"server":null,"server_io":{"cache_hits":5,"cache_misses":1}}"#;
        let flat = flatten(&json::parse(doc).unwrap());
        assert!(flat.iter().any(|(k, _)| k == "clients.1.cache_hits"));
        assert!(flat.iter().any(|(k, _)| k == "server_io.cache_misses"));
    }
}
