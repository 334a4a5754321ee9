//! MCA runtime parameters.
//!
//! A thread-safe string key/value store with typed accessors and source
//! provenance. Mirrors Open MPI's `--mca <key> <value>` mechanism: the same
//! store configures component selection (`--mca snapc full`) and component
//! tunables (`--mca crs_blcr_sim_fail_every 3`).

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use parking_lot::RwLock;

/// Where a parameter value came from. Higher sources override lower ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ParamSource {
    /// Built-in default registered by a framework/component.
    Default,
    /// Read from an `mca-params.conf`-style file.
    File,
    /// Taken from the environment (`OMPI_MCA_<key>`).
    Environment,
    /// Given on the command line (`--mca key value`).
    CommandLine,
    /// Set programmatically through the API (strongest).
    Api,
}

impl fmt::Display for ParamSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParamSource::Default => "default",
            ParamSource::File => "file",
            ParamSource::Environment => "environment",
            ParamSource::CommandLine => "command line",
            ParamSource::Api => "api",
        };
        f.write_str(s)
    }
}

#[derive(Debug, Clone)]
struct Entry {
    value: String,
    source: ParamSource,
}

/// Thread-safe MCA parameter store.
///
/// Cloning an `McaParams` snapshot is cheap relative to job launch and is
/// used to give each simulated process an immutable view of its launch
/// parameters (the view is what gets recorded in snapshot metadata so a
/// restart can reconstruct the original configuration).
///
/// # Examples
///
/// ```
/// use mca::McaParams;
///
/// let params = McaParams::new();
/// params.set("crs", "blcr_sim");
/// params.set("crs_blcr_sim_fail_every", "3");
/// assert_eq!(params.get("crs").as_deref(), Some("blcr_sim"));
/// assert_eq!(params.get_parsed_or("crs_blcr_sim_fail_every", 0u64).unwrap(), 3);
/// // Command line style:
/// let argv: Vec<String> = ["--mca", "snapc", "tree", "app"].iter().map(|s| s.to_string()).collect();
/// let rest = params.consume_cli_args(&argv).unwrap();
/// assert_eq!(rest, vec!["app"]);
/// assert_eq!(params.get("snapc").as_deref(), Some("tree"));
/// ```
#[derive(Debug, Default)]
pub struct McaParams {
    entries: RwLock<BTreeMap<String, Entry>>,
}

impl Clone for McaParams {
    fn clone(&self) -> Self {
        McaParams {
            entries: RwLock::new(self.entries.read().clone()),
        }
    }
}

impl McaParams {
    /// Empty parameter store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `key` from the given `source`. A weaker source never overrides a
    /// stronger one (command line beats file, api beats everything).
    pub fn set_from(&self, key: &str, value: impl Into<String>, source: ParamSource) {
        let mut map = self.entries.write();
        match map.get(key) {
            Some(existing) if existing.source > source => {}
            _ => {
                map.insert(
                    key.to_string(),
                    Entry {
                        value: value.into(),
                        source,
                    },
                );
            }
        }
    }

    /// Set `key` programmatically (strongest source).
    pub fn set(&self, key: &str, value: impl Into<String>) {
        self.set_from(key, value, ParamSource::Api);
    }

    /// Register a built-in default: only takes effect if nothing stronger
    /// has set the key.
    pub fn default_value(&self, key: &str, value: impl Into<String>) {
        self.set_from(key, value, ParamSource::Default);
    }

    /// Raw string value of `key`.
    pub fn get(&self, key: &str) -> Option<String> {
        self.entries.read().get(key).map(|e| e.value.clone())
    }

    /// Parse `key` as `T`, falling back to `default` when absent.
    ///
    /// A present-but-unparsable value returns `Err` rather than silently
    /// using the default: a typo'd `--mca` tunable must not change behaviour
    /// without telling the user.
    pub fn get_parsed_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, ParamParseError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ParamParseError {
                key: key.to_string(),
                raw,
                wanted: std::any::type_name::<T>(),
            }),
        }
    }

    /// Boolean accessor accepting `1/0/true/false/yes/no` (Open MPI style).
    pub fn get_bool_or(&self, key: &str, default: bool) -> Result<bool, ParamParseError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => match raw.to_ascii_lowercase().as_str() {
                "1" | "true" | "yes" | "on" => Ok(true),
                "0" | "false" | "no" | "off" => Ok(false),
                _ => Err(ParamParseError {
                    key: key.to_string(),
                    raw,
                    wanted: "bool",
                }),
            },
        }
    }

    /// Parse `--mca key value` occurrences out of an argument vector,
    /// returning the arguments that were not consumed.
    pub fn consume_cli_args(&self, args: &[String]) -> Result<Vec<String>, ParamParseError> {
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--mca" || arg == "-mca" {
                let key = it.next().ok_or_else(|| ParamParseError {
                    key: "--mca".into(),
                    raw: "<missing key>".into(),
                    wanted: "key value pair",
                })?;
                let value = it.next().ok_or_else(|| ParamParseError {
                    key: key.clone(),
                    raw: "<missing value>".into(),
                    wanted: "key value pair",
                })?;
                self.set_from(key, value.clone(), ParamSource::CommandLine);
            } else {
                rest.push(arg.clone());
            }
        }
        Ok(rest)
    }

    /// Snapshot of every key/value pair, for embedding in snapshot metadata.
    pub fn dump(&self) -> Vec<(String, String)> {
        self.entries
            .read()
            .iter()
            .map(|(k, e)| (k.clone(), e.value.clone()))
            .collect()
    }

    /// Rebuild a store from a [`McaParams::dump`] (used at restart to
    /// recreate the original launch configuration from snapshot metadata).
    pub fn from_dump<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        let params = McaParams::new();
        for (k, v) in pairs {
            params.set_from(k, v, ParamSource::File);
        }
        params
    }
}

/// A parameter existed but could not be parsed as the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamParseError {
    /// Parameter key.
    pub key: String,
    /// Raw value found.
    pub raw: String,
    /// Human-readable description of the wanted type.
    pub wanted: &'static str,
}

impl fmt::Display for ParamParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MCA parameter {:?} has value {:?} which is not a valid {}",
            self.key, self.raw, self.wanted
        )
    }
}

impl std::error::Error for ParamParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let p = McaParams::new();
        p.set("snapc", "full");
        assert_eq!(p.get("snapc").as_deref(), Some("full"));
        assert_eq!(p.get("missing"), None);
    }

    #[test]
    fn source_precedence() {
        let p = McaParams::new();
        p.set_from("crs", "self", ParamSource::CommandLine);
        p.set_from("crs", "blcr_sim", ParamSource::File);
        assert_eq!(p.get("crs").as_deref(), Some("self"), "file must not beat cli");
        p.set_from("crs", "none", ParamSource::Api);
        assert_eq!(p.get("crs").as_deref(), Some("none"), "api beats cli");
    }

    #[test]
    fn default_does_not_override() {
        let p = McaParams::new();
        p.set("crcp", "coord");
        p.default_value("crcp", "none");
        assert_eq!(p.get("crcp").as_deref(), Some("coord"));
        p.default_value("filem", "rsh_sim");
        assert_eq!(p.get("filem").as_deref(), Some("rsh_sim"));
    }

    #[test]
    fn equal_source_last_write_wins() {
        let p = McaParams::new();
        p.set("k", "a");
        p.set("k", "b");
        assert_eq!(p.get("k").as_deref(), Some("b"));
    }

    #[test]
    fn typed_accessors() {
        let p = McaParams::new();
        p.set("interval", "7");
        p.set("enable", "yes");
        p.set("ratio", "0.25");
        assert_eq!(p.get_parsed_or("interval", 0u64).unwrap(), 7);
        assert_eq!(p.get_parsed_or("absent", 42u64).unwrap(), 42);
        assert!(p.get_bool_or("enable", false).unwrap());
        assert!(!p.get_bool_or("absent", false).unwrap());
        assert_eq!(p.get_parsed_or("ratio", 0.0f64).unwrap(), 0.25);
    }

    #[test]
    fn unparsable_value_is_error_not_default() {
        let p = McaParams::new();
        p.set("interval", "soon");
        let err = p.get_parsed_or("interval", 0u64).unwrap_err();
        assert!(err.to_string().contains("interval"));
        assert!(err.to_string().contains("soon"));
        p.set("enable", "maybe");
        assert!(p.get_bool_or("enable", true).is_err());
    }

    #[test]
    fn cli_args_consumed() {
        let p = McaParams::new();
        let args: Vec<String> = ["prog", "--mca", "crs", "self", "-np", "4", "--mca", "snapc", "full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rest = p.consume_cli_args(&args).unwrap();
        assert_eq!(rest, vec!["prog", "-np", "4"]);
        assert_eq!(p.get("crs").as_deref(), Some("self"));
        assert_eq!(p.get("snapc").as_deref(), Some("full"));
    }

    #[test]
    fn cli_missing_value_is_error() {
        let p = McaParams::new();
        let args: Vec<String> = ["--mca", "crs"].iter().map(|s| s.to_string()).collect();
        assert!(p.consume_cli_args(&args).is_err());
        let args: Vec<String> = ["--mca"].iter().map(|s| s.to_string()).collect();
        assert!(p.consume_cli_args(&args).is_err());
    }

    #[test]
    fn dump_and_rebuild() {
        let p = McaParams::new();
        p.set("a", "1");
        p.set("b", "2");
        let dump = p.dump();
        let rebuilt = McaParams::from_dump(dump.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        assert_eq!(rebuilt.get("a").as_deref(), Some("1"));
        assert_eq!(rebuilt.get("b").as_deref(), Some("2"));
        assert_eq!(rebuilt.dump(), dump);
    }

    #[test]
    fn clone_is_snapshot() {
        let p = McaParams::new();
        p.set("k", "v1");
        let snap = p.clone();
        p.set("k", "v2");
        assert_eq!(snap.get("k").as_deref(), Some("v1"));
        assert_eq!(p.get("k").as_deref(), Some("v2"));
    }
}
