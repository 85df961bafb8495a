//! A tiny, dependency-free command-line parser shared by the harness
//! binaries.

use filtering::EngineKind;
use workload::ScenarioConfig;

/// Options common to all harness binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Which panel(s) to produce (`a`–`f`, `all`, or `summary`).
    pub panel: String,
    /// The matching engine the distributed brokers run
    /// (`counting` or `atree`).
    pub engine: String,
    /// Number of subscriptions.
    pub subs: usize,
    /// Number of published events.
    pub events: usize,
    /// Number of events sampled for the selectivity statistics.
    pub stats_sample: usize,
    /// Number of brokers in the distributed setting.
    pub brokers: usize,
    /// Number of x-axis samples between 0 and 1 (inclusive).
    pub fractions: usize,
    /// Workload seed.
    pub seed: u64,
    /// Use the full paper scale (200,000 subscriptions / 100,000 events).
    pub paper_scale: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            panel: "all".to_owned(),
            engine: "counting".to_owned(),
            subs: 20_000,
            events: 10_000,
            stats_sample: 2_000,
            brokers: 5,
            fractions: 11,
            seed: 42,
            paper_scale: false,
        }
    }
}

/// The panel names accepted by `--panel`.
pub const PANELS: [&str; 8] = ["a", "b", "c", "d", "e", "f", "all", "summary"];

/// The engine names accepted by `--engine`.
pub const ENGINES: [&str; 2] = ["counting", "atree"];

/// Why parsing stopped: an explicit help request (exit 0, print to stdout)
/// or an actual error (exit 2, print to stderr).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h` was passed; carries the usage text.
    Help(String),
    /// A flag was unknown, malformed, or out of range.
    Invalid(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help(usage) => f.write_str(usage),
            CliError::Invalid(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CliError {}

impl CliOptions {
    /// Parses options from an argument iterator (without the program name).
    /// Unknown flags produce an error listing the supported flags.
    pub fn parse<I, S>(args: I) -> Result<Self, CliError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut options = Self::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let arg = arg.as_ref();
            let mut take_value = |name: &str| -> Result<String, CliError> {
                iter.next()
                    .map(|v| v.as_ref().to_owned())
                    .ok_or_else(|| CliError::Invalid(format!("flag {name} expects a value")))
            };
            match arg {
                "--panel" => {
                    // Normalize and validate eagerly: an unknown panel would
                    // otherwise make the harness silently produce no output.
                    let panel = take_value("--panel")?.to_ascii_lowercase();
                    if !PANELS.contains(&panel.as_str()) {
                        return Err(CliError::Invalid(format!(
                            "--panel: unknown panel {panel:?} (expected one of {})\n{}",
                            PANELS.join(", "),
                            Self::usage()
                        )));
                    }
                    options.panel = panel;
                }
                "--engine" => {
                    // Validated like --panel: a typo'd engine would silently
                    // benchmark the wrong matcher.
                    let engine = take_value("--engine")?.to_ascii_lowercase();
                    if !ENGINES.contains(&engine.as_str()) {
                        return Err(CliError::Invalid(format!(
                            "--engine: unknown engine {engine:?} (expected one of {})\n{}",
                            ENGINES.join(", "),
                            Self::usage()
                        )));
                    }
                    options.engine = engine;
                }
                "--subs" => {
                    options.subs = take_value("--subs")?
                        .parse()
                        .map_err(|e| CliError::Invalid(format!("--subs: {e}")))?
                }
                "--events" => {
                    options.events = take_value("--events")?
                        .parse()
                        .map_err(|e| CliError::Invalid(format!("--events: {e}")))?
                }
                "--stats-sample" => {
                    options.stats_sample = take_value("--stats-sample")?
                        .parse()
                        .map_err(|e| CliError::Invalid(format!("--stats-sample: {e}")))?
                }
                "--brokers" => {
                    options.brokers = take_value("--brokers")?
                        .parse()
                        .map_err(|e| CliError::Invalid(format!("--brokers: {e}")))?
                }
                "--fractions" => {
                    options.fractions = take_value("--fractions")?
                        .parse()
                        .map_err(|e| CliError::Invalid(format!("--fractions: {e}")))?
                }
                "--seed" => {
                    options.seed = take_value("--seed")?
                        .parse()
                        .map_err(|e| CliError::Invalid(format!("--seed: {e}")))?
                }
                "--paper-scale" => options.paper_scale = true,
                "--help" | "-h" => return Err(CliError::Help(Self::usage())),
                other => {
                    return Err(CliError::Invalid(format!(
                        "unknown flag {other}\n{}",
                        Self::usage()
                    )))
                }
            }
        }
        if options.fractions < 2 {
            return Err(CliError::Invalid(
                "--fractions must be at least 2".to_owned(),
            ));
        }
        Ok(options)
    }

    /// The usage string printed on `--help` or parse errors.
    pub fn usage() -> String {
        [
            "usage: <binary> [flags]",
            "  --panel <a|b|c|d|e|f|all|summary>   which figure panel(s) to produce (default all)",
            "  --engine <counting|atree>           broker matching engine (default counting)",
            "  --subs <n>                          number of subscriptions (default 20000)",
            "  --events <n>                        number of published events (default 10000)",
            "  --stats-sample <n>                  events sampled for selectivity statistics (default 2000)",
            "  --brokers <n>                       brokers in the distributed setting (default 5)",
            "  --fractions <n>                     x-axis samples between 0 and 1 (default 11)",
            "  --seed <n>                          workload seed (default 42)",
            "  --paper-scale                       use the paper's scale (200k subs / 100k events)",
        ]
        .join("\n")
    }

    /// Parses `std::env::args()` and exits the process on help or error:
    /// usage goes to stdout with status 0, errors to stderr with status 2.
    pub fn parse_or_exit() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(options) => options,
            Err(CliError::Help(usage)) => {
                println!("{usage}");
                std::process::exit(0);
            }
            Err(error) => {
                eprintln!("{error}");
                std::process::exit(2);
            }
        }
    }

    /// Serializes the options back into the argument form [`parse`] accepts,
    /// so option sets can be logged and replayed exactly.
    ///
    /// [`parse`]: CliOptions::parse
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--panel".to_owned(),
            self.panel.clone(),
            "--engine".to_owned(),
            self.engine.clone(),
            "--subs".to_owned(),
            self.subs.to_string(),
            "--events".to_owned(),
            self.events.to_string(),
            "--stats-sample".to_owned(),
            self.stats_sample.to_string(),
            "--brokers".to_owned(),
            self.brokers.to_string(),
            "--fractions".to_owned(),
            self.fractions.to_string(),
            "--seed".to_owned(),
            self.seed.to_string(),
        ];
        if self.paper_scale {
            args.push("--paper-scale".to_owned());
        }
        args
    }

    /// The [`EngineKind`] implied by `--engine`.
    pub fn engine_kind(&self) -> EngineKind {
        match self.engine.as_str() {
            "atree" => EngineKind::ATree,
            _ => EngineKind::Counting,
        }
    }

    /// The x-axis fractions implied by `--fractions`.
    pub fn fraction_list(&self) -> Vec<f64> {
        let n = self.fractions.max(2);
        (0..n).map(|i| i as f64 / (n - 1) as f64).collect()
    }

    /// The centralized scenario implied by these options.
    pub fn centralized_scenario(&self) -> ScenarioConfig {
        let mut scenario = if self.paper_scale {
            ScenarioConfig::paper_centralized()
        } else {
            ScenarioConfig::small_centralized()
        };
        if !self.paper_scale {
            scenario.subscription_count = self.subs;
            scenario.event_count = self.events;
            scenario.stats_sample = self.stats_sample;
        }
        scenario.workload.seed = self.seed;
        scenario.broker_count = 1;
        scenario
    }

    /// The distributed scenario implied by these options.
    pub fn distributed_scenario(&self) -> ScenarioConfig {
        let mut scenario = self.centralized_scenario();
        scenario.broker_count = self.brokers.max(2);
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_simple_flags() {
        let options = CliOptions::parse(Vec::<String>::new()).unwrap();
        assert_eq!(options, CliOptions::default());
        let options = CliOptions::parse(["--panel", "a", "--subs", "100", "--seed", "7"]).unwrap();
        assert_eq!(options.panel, "a");
        assert_eq!(options.subs, 100);
        assert_eq!(options.seed, 7);
    }

    #[test]
    fn unknown_flags_and_missing_values_error() {
        assert!(matches!(
            CliOptions::parse(["--bogus"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            CliOptions::parse(["--subs"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            CliOptions::parse(["--subs", "abc"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            CliOptions::parse(["--fractions", "1"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn help_is_distinguished_from_errors() {
        // `--help` must carry the usage text and not be treated as a failure
        // by callers that distinguish the two (exit 0 vs exit 2).
        for flag in ["--help", "-h"] {
            match CliOptions::parse([flag]) {
                Err(CliError::Help(usage)) => assert!(usage.contains("--panel")),
                other => panic!("{flag} should yield CliError::Help, got {other:?}"),
            }
        }
    }

    #[test]
    fn panel_names_are_validated_and_normalized() {
        for panel in PANELS {
            let options = CliOptions::parse(["--panel", panel]).unwrap();
            assert_eq!(options.panel, panel);
        }
        // Case-insensitive input normalizes to the canonical lowercase name.
        assert_eq!(CliOptions::parse(["--panel", "E"]).unwrap().panel, "e");
        assert_eq!(
            CliOptions::parse(["--panel", "SUMMARY"]).unwrap().panel,
            "summary"
        );
        // Unknown panels fail loudly instead of silently producing nothing.
        let err = CliOptions::parse(["--panel", "g"]).unwrap_err();
        assert!(err.to_string().contains("unknown panel"), "got: {err}");
        assert!(CliOptions::parse(["--panel", ""]).is_err());
    }

    #[test]
    fn engine_names_are_validated_and_mapped() {
        assert_eq!(CliOptions::default().engine_kind(), EngineKind::Counting);
        let expected = [
            ("counting", EngineKind::Counting),
            ("atree", EngineKind::ATree),
        ];
        for (name, kind) in expected {
            let options = CliOptions::parse(["--engine", name]).unwrap();
            assert_eq!(options.engine, name);
            assert_eq!(options.engine_kind(), kind);
            // Every engine selection round-trips through to_args.
            assert_eq!(CliOptions::parse(options.to_args()).unwrap(), options);
        }
        // Case-insensitive input normalizes to the canonical lowercase name.
        assert_eq!(
            CliOptions::parse(["--engine", "ATree"]).unwrap().engine,
            "atree"
        );
        // Unknown engines fail loudly instead of silently benchmarking the
        // wrong matcher.
        let err = CliOptions::parse(["--engine", "btree"]).unwrap_err();
        assert!(err.to_string().contains("unknown engine"), "got: {err}");
        assert!(CliOptions::parse(["--engine", ""]).is_err());
    }

    #[test]
    fn options_round_trip_through_to_args() {
        // Defaults survive a serialize/parse cycle.
        let defaults = CliOptions::default();
        assert_eq!(CliOptions::parse(defaults.to_args()).unwrap(), defaults);

        // Every panel selection round-trips.
        for panel in PANELS {
            let options = CliOptions::parse(["--panel", panel]).unwrap();
            assert_eq!(CliOptions::parse(options.to_args()).unwrap(), options);
        }

        // --paper-scale and the numeric flags round-trip together.
        let options = CliOptions::parse([
            "--panel",
            "f",
            "--paper-scale",
            "--subs",
            "123",
            "--events",
            "45",
            "--stats-sample",
            "67",
            "--brokers",
            "4",
            "--fractions",
            "7",
            "--seed",
            "99",
        ])
        .unwrap();
        assert!(options.paper_scale);
        let reparsed = CliOptions::parse(options.to_args()).unwrap();
        assert_eq!(reparsed, options);
        assert!(reparsed.paper_scale);
        assert_eq!(reparsed.seed, 99);
    }

    #[test]
    fn fraction_list_spans_zero_to_one() {
        let options = CliOptions::parse(["--fractions", "5"]).unwrap();
        let fractions = options.fraction_list();
        assert_eq!(fractions.len(), 5);
        assert_eq!(fractions[0], 0.0);
        assert_eq!(*fractions.last().unwrap(), 1.0);
    }

    #[test]
    fn scenarios_reflect_options() {
        let options =
            CliOptions::parse(["--subs", "500", "--events", "200", "--brokers", "3"]).unwrap();
        let central = options.centralized_scenario();
        assert_eq!(central.subscription_count, 500);
        assert_eq!(central.event_count, 200);
        assert_eq!(central.broker_count, 1);
        let distributed = options.distributed_scenario();
        assert_eq!(distributed.broker_count, 3);

        let paper = CliOptions::parse(["--paper-scale"])
            .unwrap()
            .centralized_scenario();
        assert_eq!(paper.subscription_count, 200_000);
    }
}
