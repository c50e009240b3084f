//! `lint.toml` — the analyzer's configuration.
//!
//! The format is a deliberately small TOML subset (the workspace vendors no
//! TOML parser and the offline policy forbids adding one): comments with
//! `#`, `[section]` and `[[array-of-tables]]` headers, and `key = value`
//! pairs where a value is a quoted string, an integer, a boolean, or an
//! array of quoted strings on one line.
//!
//! Recognised structure:
//!
//! ```toml
//! roots = ["crates", "src"]          # directories scanned for .rs files
//! exclude = ["vendor", "crates/lint"]
//!
//! [rules.no-wall-clock]              # per-rule path scoping
//! paths = ["crates"]                 # only these prefixes (default: all roots)
//! exclude = ["crates/bench"]         # minus these prefixes
//!
//! [[allow]]                          # a justified suppression
//! rule = "panic-surface"
//! path = "crates/gbdt/src/gbm.rs"
//! max = 14                           # omitted => unlimited
//! reason = "hot-path flat-array indexing"
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Scoping for one rule: which repo-relative path prefixes it applies to.
#[derive(Debug, Clone, Default)]
pub struct RuleScope {
    /// Path prefixes the rule is restricted to; empty means "everywhere".
    pub paths: Vec<String>,
    /// Path prefixes the rule skips.
    pub exclude: Vec<String>,
}

impl RuleScope {
    /// Whether the rule applies to a repo-relative file path.
    pub fn applies_to(&self, rel_path: &str) -> bool {
        let included =
            self.paths.is_empty() || self.paths.iter().any(|p| path_has_prefix(rel_path, p));
        included && !self.exclude.iter().any(|p| path_has_prefix(rel_path, p))
    }
}

/// One `[[allow]]` entry: a justified suppression of findings.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    /// Repo-relative path prefix (a file or a directory).
    pub path: String,
    /// Maximum number of findings tolerated; `None` means unlimited.
    pub max: Option<usize>,
    /// Human justification — required, so every suppression is documented.
    pub reason: String,
}

/// The parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    pub roots: Vec<String>,
    pub exclude: Vec<String>,
    pub rules: BTreeMap<String, RuleScope>,
    pub allow: Vec<AllowEntry>,
}

/// A configuration parse error with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Scope for a rule name: the configured scope, or an everywhere-scope
    /// for rules without a `[rules.<name>]` section.
    pub fn scope(&self, rule: &str) -> RuleScope {
        self.rules.get(rule).cloned().unwrap_or_default()
    }

    /// The allow entry (if any) covering findings of `rule` in `rel_path`.
    pub fn allow_for(&self, rule: &str, rel_path: &str) -> Option<&AllowEntry> {
        self.allow
            .iter()
            .find(|a| a.rule == rule && path_has_prefix(rel_path, &a.path))
    }

    /// Whether a repo-relative path is excluded from scanning entirely.
    pub fn is_excluded(&self, rel_path: &str) -> bool {
        self.exclude.iter().any(|p| path_has_prefix(rel_path, p))
    }
}

/// Prefix match on path components: `crates/gbdt` matches
/// `crates/gbdt/src/gbm.rs` but not `crates/gbdt2/...`.
pub fn path_has_prefix(rel_path: &str, prefix: &str) -> bool {
    rel_path == prefix
        || rel_path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
}

/// Parse a configuration file's contents.
pub fn parse(source: &str) -> Result<Config, ConfigError> {
    let mut config = Config::default();
    // Which table `key = value` lines currently land in.
    enum Section {
        Top,
        Rule(String),
        Allow,
    }
    let mut section = Section::Top;
    // Pending allow entry being accumulated.
    let mut pending: Option<(String, String, Option<usize>, String)> = None;

    let flush = |pending: &mut Option<(String, String, Option<usize>, String)>,
                 out: &mut Vec<AllowEntry>,
                 line: u32|
     -> Result<(), ConfigError> {
        if let Some((rule, path, max, reason)) = pending.take() {
            if rule.is_empty() || path.is_empty() {
                return Err(ConfigError {
                    line,
                    message: "[[allow]] entry needs both `rule` and `path`".into(),
                });
            }
            if reason.is_empty() {
                return Err(ConfigError {
                    line,
                    message: format!("[[allow]] entry for {rule} at {path} needs a `reason`"),
                });
            }
            out.push(AllowEntry {
                rule,
                path,
                max,
                reason,
            });
        }
        Ok(())
    };

    let raw_lines: Vec<&str> = source.lines().collect();
    let mut idx = 0usize;
    while idx < raw_lines.len() {
        let lineno = idx as u32 + 1;
        let mut line = strip_comment(raw_lines[idx]).trim().to_string();
        // Multi-line arrays: keep consuming lines until the bracket closes.
        while line.contains('[')
            && !line.starts_with('[')
            && !line.contains(']')
            && idx + 1 < raw_lines.len()
        {
            idx += 1;
            line.push(' ');
            line.push_str(strip_comment(raw_lines[idx]).trim());
        }
        idx += 1;
        let line = line.as_str();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            flush(&mut pending, &mut config.allow, lineno)?;
            if header.trim() != "allow" {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("unknown array section [[{header}]]"),
                });
            }
            section = Section::Allow;
            pending = Some((String::new(), String::new(), None, String::new()));
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            flush(&mut pending, &mut config.allow, lineno)?;
            let header = header.trim();
            match header.strip_prefix("rules.") {
                Some(rule) if !rule.is_empty() => {
                    section = Section::Rule(rule.to_string());
                    config.rules.entry(rule.to_string()).or_default();
                }
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown section [{header}]"),
                    })
                }
            }
            continue;
        }
        let (key, value) = split_kv(line, lineno)?;
        match &mut section {
            Section::Top => match key {
                "roots" => config.roots = parse_string_array(value, lineno)?,
                "exclude" => config.exclude = parse_string_array(value, lineno)?,
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown top-level key `{key}`"),
                    })
                }
            },
            Section::Rule(name) => {
                let scope = config.rules.entry(name.clone()).or_default();
                match key {
                    "paths" => scope.paths = parse_string_array(value, lineno)?,
                    "exclude" => scope.exclude = parse_string_array(value, lineno)?,
                    _ => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unknown rule key `{key}`"),
                        })
                    }
                }
            }
            Section::Allow => {
                let entry = pending.as_mut().expect("allow section implies pending");
                match key {
                    "rule" => entry.0 = parse_string(value, lineno)?,
                    "path" => entry.1 = parse_string(value, lineno)?,
                    "max" => {
                        entry.2 = Some(value.parse::<usize>().map_err(|_| ConfigError {
                            line: lineno,
                            message: format!("`max` must be an integer, got `{value}`"),
                        })?)
                    }
                    "reason" => entry.3 = parse_string(value, lineno)?,
                    _ => {
                        return Err(ConfigError {
                            line: lineno,
                            message: format!("unknown allow key `{key}`"),
                        })
                    }
                }
            }
        }
    }
    let last = source.lines().count() as u32;
    flush(&mut pending, &mut config.allow, last)?;
    if config.roots.is_empty() {
        return Err(ConfigError {
            line: 0,
            message: "configuration must set `roots`".into(),
        });
    }
    Ok(config)
}

/// Parse the configuration file at `path`.
pub fn load(path: &Path) -> Result<Config, ConfigError> {
    let source = std::fs::read_to_string(path).map_err(|e| ConfigError {
        line: 0,
        message: format!("cannot read {}: {e}", path.display()),
    })?;
    parse(&source)
}

/// Remove a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn split_kv(line: &str, lineno: u32) -> Result<(&str, &str), ConfigError> {
    let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
        line: lineno,
        message: format!("expected `key = value`, got `{line}`"),
    })?;
    Ok((key.trim(), value.trim()))
}

fn parse_string(value: &str, lineno: u32) -> Result<String, ConfigError> {
    value
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected a quoted string, got `{value}`"),
        })
}

fn parse_string_array(value: &str, lineno: u32) -> Result<Vec<String>, ConfigError> {
    let inner = value
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected an array of strings, got `{value}`"),
        })?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# byom_lint configuration
roots = ["crates", "src"]
exclude = ["vendor", "crates/lint"]

[rules.no-wall-clock]
exclude = ["crates/bench"]

[rules.no-unordered-iteration]
paths = ["crates/core", "crates/trace"]

[[allow]]
rule = "panic-surface"
path = "crates/gbdt/src/gbm.rs"
max = 3
reason = "hot-path indexing"
"#;

    #[test]
    fn parses_sections_and_scoping() {
        let c = parse(SAMPLE).unwrap();
        assert_eq!(c.roots, vec!["crates", "src"]);
        assert!(c.is_excluded("vendor/rand/src/lib.rs"));
        assert!(c.is_excluded("crates/lint/src/main.rs"));
        assert!(!c.is_excluded("crates/linty/src/main.rs"));

        let wc = c.scope("no-wall-clock");
        assert!(wc.applies_to("crates/sim/src/runtime.rs"));
        assert!(!wc.applies_to("crates/bench/src/harness.rs"));

        let it = c.scope("no-unordered-iteration");
        assert!(it.applies_to("crates/core/src/ladder.rs"));
        assert!(!it.applies_to("crates/gbdt/src/gbm.rs"));

        // Unconfigured rules apply everywhere.
        assert!(c.scope("no-unseeded-rng").applies_to("src/lib.rs"));
    }

    #[test]
    fn allow_entries_carry_max_and_reason() {
        let c = parse(SAMPLE).unwrap();
        let a = c
            .allow_for("panic-surface", "crates/gbdt/src/gbm.rs")
            .unwrap();
        assert_eq!(a.max, Some(3));
        assert_eq!(a.reason, "hot-path indexing");
        assert!(c
            .allow_for("panic-surface", "crates/gbdt/src/tree.rs")
            .is_none());
        assert!(c
            .allow_for("no-wall-clock", "crates/gbdt/src/gbm.rs")
            .is_none());
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let bad = "roots = [\"crates\"]\n[[allow]]\nrule = \"x\"\npath = \"y\"\n";
        assert!(parse(bad).is_err());
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(parse("roots = [\"a\"]\nbogus = 1\n").is_err());
        assert!(parse("roots = [\"a\"]\n[weird]\n").is_err());
    }
}
