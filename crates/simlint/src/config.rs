//! Linter configuration: built-in rule defaults plus the checked-in
//! `simlint.toml` (allowlisted paths per rule and the findings baseline).
//!
//! The file is parsed by a tiny hand-rolled TOML subset (the build is
//! offline): `[section]` headers, `key = "string"`, `key = true|false`, and
//! `key = ["a", "b", …]` arrays (single- or multi-line). That is all the
//! configuration needs.

use std::collections::BTreeMap;

/// Per-rule configuration.
#[derive(Debug, Clone, Default)]
pub struct RuleCfg {
    /// Repo-relative path prefixes where the rule does not apply (the
    /// sanctioned escape hatch, e.g. perf calibration reading wall clocks).
    pub allow_paths: Vec<String>,
    /// If non-empty, the rule *only* applies to files matching one of these
    /// repo-relative prefixes (e.g. H2 scopes to `simcore::time`).
    pub paths: Vec<String>,
    /// Whether the rule fires inside `#[cfg(test)]` items and files under
    /// `tests/`, `benches/`, `examples/`.
    pub include_tests: bool,
}

/// The linter configuration: per-rule scoping plus the baseline.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Rule id → configuration. (`BTreeMap`: deterministic iteration.)
    pub rules: BTreeMap<String, RuleCfg>,
    /// Tolerated findings, `"RULE:repo/relative/path.rs"` — reported but not
    /// counted against the gate. Drive this to empty.
    pub baseline: Vec<String>,
}

impl Config {
    /// The built-in defaults (rule scoping that is structural, not
    /// repository policy). `simlint.toml` layers policy on top.
    pub fn builtin() -> Config {
        let mut rules = BTreeMap::new();
        rules.insert(
            "D1".to_owned(),
            RuleCfg {
                include_tests: true, // hash-order flakiness bites tests too
                ..RuleCfg::default()
            },
        );
        rules.insert(
            "D2".to_owned(),
            RuleCfg {
                include_tests: true,
                ..RuleCfg::default()
            },
        );
        rules.insert(
            "D3".to_owned(),
            RuleCfg {
                include_tests: false, // tests may seed ad-hoc RNGs directly
                ..RuleCfg::default()
            },
        );
        rules.insert(
            "D4".to_owned(),
            RuleCfg {
                include_tests: true,
                ..RuleCfg::default()
            },
        );
        rules.insert(
            "D5".to_owned(),
            RuleCfg {
                include_tests: false, // tests build throwaway state on purpose
                // Only the simulation crates carry checkpointable state; the
                // bench/tooling crates hold host-side state by design.
                paths: vec![
                    "crates/simcore/src/".to_owned(),
                    "crates/oskernel/src/".to_owned(),
                    "crates/microsvc/src/".to_owned(),
                    "crates/loadgen/src/".to_owned(),
                    "crates/storedb/src/".to_owned(),
                ],
                ..RuleCfg::default()
            },
        );
        rules.insert(
            "D6".to_owned(),
            RuleCfg {
                include_tests: true, // racy captures are racy in tests too
                ..RuleCfg::default()
            },
        );
        rules.insert(
            "H1".to_owned(),
            RuleCfg {
                include_tests: true, // fences are in non-test code anyway
                ..RuleCfg::default()
            },
        );
        rules.insert(
            "H2".to_owned(),
            RuleCfg {
                include_tests: false,
                paths: vec!["crates/simcore/src/time.rs".to_owned()],
                ..RuleCfg::default()
            },
        );
        rules.insert(
            "D7".to_owned(),
            RuleCfg {
                include_tests: false, // tests may derive ad-hoc streams
                ..RuleCfg::default()
            },
        );
        rules.insert(
            "H3".to_owned(),
            RuleCfg {
                include_tests: true, // fences only exist in non-test code
                ..RuleCfg::default()
            },
        );
        Config {
            rules,
            baseline: Vec::new(),
        }
    }

    /// Builtin defaults merged with a parsed `simlint.toml`.
    pub fn from_toml(toml: &str) -> Config {
        let mut cfg = Config::builtin();
        for (section, key, value) in parse(toml) {
            match (section.as_str(), key.as_str()) {
                ("baseline", "entries") => cfg.baseline = value.into_strings(),
                (s, k) if s.starts_with("rules.") => {
                    let rule = s["rules.".len()..].to_owned();
                    let entry = cfg.rules.entry(rule).or_default();
                    match k {
                        "allow_paths" => entry.allow_paths = value.into_strings(),
                        "paths" => entry.paths = value.into_strings(),
                        "include_tests" => {
                            if let Value::Bool(b) = value {
                                entry.include_tests = b;
                            }
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        cfg
    }

    /// Rule configuration, falling back to an inert default.
    pub fn rule(&self, id: &str) -> RuleCfg {
        self.rules.get(id).cloned().unwrap_or_default()
    }

    /// Whether a finding `(rule, file)` is tolerated by the baseline.
    pub fn is_baselined(&self, rule: &str, file: &str) -> bool {
        let key = format!("{rule}:{file}");
        self.baseline.iter().any(|e| e == &key)
    }
}

/// A parsed TOML value (the subset the config uses).
#[derive(Debug, Clone)]
pub enum Value {
    Str(String),
    Bool(bool),
    Array(Vec<String>),
}

impl Value {
    fn into_strings(self) -> Vec<String> {
        match self {
            Value::Array(v) => v,
            Value::Str(s) => vec![s],
            Value::Bool(_) => Vec::new(),
        }
    }
}

/// Parses the TOML subset into `(section, key, value)` triples.
fn parse(text: &str) -> Vec<(String, String, Value)> {
    let mut out = Vec::new();
    let mut section = String::new();
    let mut lines = text.lines().peekable();
    while let Some(raw) = lines.next() {
        let line = strip_comment(raw).trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_owned();
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim().to_owned();
        let mut rhs = line[eq + 1..].trim().to_owned();
        if rhs.starts_with('[') && !rhs.contains(']') {
            // Multi-line array: accumulate until the closing bracket.
            for cont in lines.by_ref() {
                let cont = strip_comment(cont).trim().to_owned();
                rhs.push(' ');
                rhs.push_str(&cont);
                if cont.contains(']') {
                    break;
                }
            }
        }
        let value = if rhs == "true" {
            Value::Bool(true)
        } else if rhs == "false" {
            Value::Bool(false)
        } else if let Some(inner) = rhs.strip_prefix('[') {
            let inner = inner.strip_suffix(']').unwrap_or(inner);
            Value::Array(
                inner
                    .split(',')
                    .map(|s| s.trim().trim_matches('"').to_owned())
                    .filter(|s| !s.is_empty())
                    .collect(),
            )
        } else {
            Value::Str(rhs.trim_matches('"').to_owned())
        };
        out.push((section.clone(), key, value));
    }
    out
}

fn strip_comment(line: &str) -> &str {
    // Good enough for this config: `#` never appears inside our strings.
    match line.find('#') {
        Some(at) => &line[..at],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_bools() {
        let toml = r#"
# comment
[rules.D2]
allow_paths = ["crates/bench/", "crates/loadgen/examples/"]
include_tests = false

[baseline]
entries = [
  "D1:crates/foo/src/bar.rs",  # tolerated
]
"#;
        let cfg = Config::from_toml(toml);
        assert_eq!(
            cfg.rule("D2").allow_paths,
            vec!["crates/bench/", "crates/loadgen/examples/"]
        );
        assert!(!cfg.rule("D2").include_tests);
        assert!(cfg.is_baselined("D1", "crates/foo/src/bar.rs"));
        assert!(!cfg.is_baselined("D1", "crates/foo/src/baz.rs"));
    }

    #[test]
    fn builtin_scopes_h2_to_time() {
        let cfg = Config::builtin();
        assert_eq!(cfg.rule("H2").paths, vec!["crates/simcore/src/time.rs"]);
        assert!(cfg.rule("D1").include_tests);
        assert!(!cfg.rule("D3").include_tests);
        assert!(
            cfg.rule("D5")
                .paths
                .iter()
                .any(|p| p == "crates/simcore/src/"),
            "D5 scopes to the simulation crates"
        );
    }
}
