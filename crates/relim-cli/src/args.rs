//! Minimal dependency-free argument parsing for the `relim` CLI.

/// Parsed command line: a subcommand plus `--key value` options and
/// `--flag` switches.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    /// Every `--key` in command-line order, with its value if it is an
    /// option and `None` if it is a flag.
    keys: Vec<(String, Option<String>)>,
}

/// A human-readable argument error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// A `--key` the command does not read. The CLI exits with status 2 on
/// it, so a mistyped or retired flag is never silently ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownOption {
    /// The key, without its leading `--`.
    pub key: String,
    /// The command it was given to.
    pub command: String,
}

impl std::fmt::Display for UnknownOption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown option --{} for '{}'", self.key, self.command)
    }
}

impl std::error::Error for UnknownOption {}

/// Option keys that take a value; everything else starting with `--` is a
/// boolean flag.
const VALUE_KEYS: &[&str] = &[
    "node",
    "edge",
    "black",
    "white",
    "delta",
    "a",
    "x",
    "k",
    "n",
    "steps",
    "side",
    "max-steps",
    "label-limit",
    "labels",
    "coloring",
    "criterion",
    "threads",
    "lemma",
    "addr",
    "store",
    "store-capacity",
    "store-budget-bytes",
    "aging-limit",
    "executors",
    "peers",
    "peer-timeout-ms",
    "op",
    "priority",
    "digest",
    "trace-id",
    "format",
];

impl Args {
    /// Parses raw arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Rejects options missing their value and unexpected positionals.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = if VALUE_KEYS.contains(&key) {
                    Some(iter.next().ok_or_else(|| ArgError(format!("--{key} requires a value")))?)
                } else {
                    None
                };
                args.keys.push((key.to_owned(), value));
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                return Err(ArgError(format!("unexpected positional argument `{tok}`")));
            }
        }
        Ok(args)
    }

    /// A string option (its last value, if given more than once).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.keys.iter().rev().find(|(k, _)| k == key).and_then(|(_, v)| v.as_deref())
    }

    /// A required string option.
    ///
    /// # Errors
    ///
    /// Describes the missing option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// A numeric option with a default.
    ///
    /// # Errors
    ///
    /// Describes unparsable values.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| ArgError(format!("--{key} expects an integer, got `{v}`")))
            }
        }
    }

    /// An optional numeric option (no default).
    ///
    /// # Errors
    ///
    /// Describes unparsable values.
    pub fn get_u64_opt(&self, key: &str) -> Result<Option<u64>, ArgError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| ArgError(format!("--{key} expects an integer, got `{v}`"))),
        }
    }

    /// A required numeric option.
    ///
    /// # Errors
    ///
    /// Describes missing/unparsable values.
    pub fn require_u64(&self, key: &str) -> Result<u64, ArgError> {
        self.require(key)?.parse().map_err(|_| ArgError(format!("--{key} expects an integer")))
    }

    /// Whether a boolean flag is present.
    pub fn has_flag(&self, name: &str) -> bool {
        self.keys.iter().any(|(k, v)| k == name && v.is_none())
    }

    /// Refuses the first key, in command-line order, that `command`
    /// does not read.
    ///
    /// # Errors
    ///
    /// Names the key and the command.
    pub fn reject_unknown<S: AsRef<str>>(
        &self,
        command: &str,
        known: &[S],
    ) -> Result<(), UnknownOption> {
        match self.keys.iter().find(|(k, _)| !known.iter().any(|known| known.as_ref() == k)) {
            None => Ok(()),
            Some((key, _)) => Err(UnknownOption { key: key.clone(), command: command.to_owned() }),
        }
    }
}

/// Normalizes a constraint argument: `;` and literal `\n` both separate
/// configuration lines, so shells without multi-line strings work too.
/// Re-exported from the serving layer's canonical implementation — the
/// CLI/daemon byte-identity contract depends on both sides normalizing
/// identically, so there is exactly one copy.
pub use relim_service::ops::constraint_text;

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, ArgError> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn command_options_flags() {
        let a = parse(&["step", "--node", "M M", "--edge", "M M", "--condense"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("step"));
        assert_eq!(a.get("node"), Some("M M"));
        assert!(a.has_flag("condense"));
        assert!(!a.has_flag("dot"));
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&["step", "--node"]).is_err());
    }

    #[test]
    fn unexpected_positional_rejected() {
        assert!(parse(&["step", "extra"]).is_err());
    }

    #[test]
    fn numbers() {
        let a = parse(&["chain", "--delta", "1024", "--k", "2"]).unwrap();
        assert_eq!(a.require_u64("delta").unwrap(), 1024);
        assert_eq!(a.get_u64("k", 0).unwrap(), 2);
        assert_eq!(a.get_u64("steps", 7).unwrap(), 7);
        assert!(a.require_u64("n").is_err());
    }

    #[test]
    fn serve_pool_options_take_values() {
        // Regression guard: a key missing from VALUE_KEYS turns its value
        // into a rejected positional, so pin the serve pool/budget flags.
        let a = parse(&[
            "serve",
            "--executors",
            "4",
            "--store-budget-bytes",
            "1048576",
            "--store-capacity",
            "64",
        ])
        .unwrap();
        assert_eq!(a.get_u64("executors", 0).unwrap(), 4);
        assert_eq!(a.get_u64("store-budget-bytes", 0).unwrap(), 1_048_576);
        assert_eq!(a.get_u64("store-capacity", 0).unwrap(), 64);
    }

    #[test]
    fn trace_options_take_values_and_trace_is_a_flag() {
        // `--trace-id`/`--format` take values; `--trace` (on submit) is
        // a boolean switch.
        let a = parse(&[
            "trace",
            "--trace-id",
            "deadbeef",
            "--format",
            "chrome",
            "--peers",
            "127.0.0.1:7402",
        ])
        .unwrap();
        assert_eq!(a.get("trace-id"), Some("deadbeef"));
        assert_eq!(a.get("format"), Some("chrome"));
        let b = parse(&["submit", "--op", "zero-round", "--trace"]).unwrap();
        assert!(b.has_flag("trace"));
    }

    #[test]
    fn serve_fleet_options_take_values() {
        let a = parse(&[
            "serve",
            "--peers",
            "127.0.0.1:7402,127.0.0.1:7403",
            "--peer-timeout-ms",
            "500",
        ])
        .unwrap();
        assert_eq!(a.get("peers"), Some("127.0.0.1:7402,127.0.0.1:7403"));
        assert_eq!(a.get_u64("peer-timeout-ms", 2000).unwrap(), 500);
    }

    #[test]
    fn keys_a_command_does_not_read_are_refused_in_order() {
        let a =
            parse(&["bounds", "--n", "1000", "--bogus-flag", "--delta", "4", "--k", "1"]).unwrap();
        let err = a.reject_unknown("bounds", &["n", "delta"]).unwrap_err();
        assert_eq!(err.to_string(), "unknown option --bogus-flag for 'bounds'");
        assert!(a.reject_unknown("bounds", &["n", "delta", "k", "bogus-flag"]).is_ok());
    }

    #[test]
    fn a_repeated_option_keeps_its_last_value() {
        let a = parse(&["bounds", "--delta", "4", "--delta", "5"]).unwrap();
        assert_eq!(a.get("delta"), Some("5"));
    }

    #[test]
    fn separators() {
        assert_eq!(constraint_text("M M; P O"), "M M\n P O");
        assert_eq!(constraint_text("M M\\nP O"), "M M\nP O");
    }
}
