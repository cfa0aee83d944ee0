//! The one typed error for every public fallible surface of the stack.
//!
//! Policy: library crates return `Result<_, HaxError>` from anything a
//! user's input can make fail (name parsing, workload validation,
//! scheduling on malformed problems, file I/O in the CLI); binaries
//! render the error and exit nonzero. Panics are reserved for internal
//! invariant violations.

use std::fmt;

/// Error type for the `haxconn` public API.
#[derive(Debug, Clone, PartialEq)]
pub enum HaxError {
    /// A model name did not match any network in the zoo.
    UnknownModel(String),
    /// A platform name did not match any built-in SoC.
    UnknownPlatform(String),
    /// An objective name was not `latency`/`throughput`.
    UnknownObjective(String),
    /// A workload failed structural validation (bad dependency indices,
    /// inconsistent ties, no tasks, …).
    InvalidWorkload(String),
    /// A scheduler/session configuration is unusable as given.
    InvalidConfig(String),
    /// No feasible schedule exists for the problem as posed.
    Infeasible(String),
    /// A produced schedule or timeline violated a structural invariant
    /// (precedence, occupancy, bandwidth conservation, …) — see
    /// `crate::validate`.
    ScheduleInvariant(String),
    /// The serving engine refused new work: the solver pool is saturated
    /// and the request could not be queued (admission control). Retry
    /// later, or enable degraded baseline responses.
    Overloaded(String),
    /// Command-line arguments could not be parsed.
    Cli(String),
    /// An I/O operation failed (path included in the message).
    Io(String),
}

impl fmt::Display for HaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HaxError::UnknownModel(s) => {
                write!(f, "unknown model '{s}' (see `haxconn models`)")
            }
            HaxError::UnknownPlatform(s) => write!(
                f,
                "unknown platform '{s}' (expected orin-agx, xavier-agx or sd865)"
            ),
            HaxError::UnknownObjective(s) => write!(
                f,
                "unknown objective '{s}' (expected 'latency' or 'throughput')"
            ),
            HaxError::InvalidWorkload(s) => write!(f, "invalid workload: {s}"),
            HaxError::InvalidConfig(s) => write!(f, "invalid configuration: {s}"),
            HaxError::Infeasible(s) => write!(f, "no feasible schedule: {s}"),
            HaxError::ScheduleInvariant(s) => write!(f, "schedule invariant violated: {s}"),
            HaxError::Overloaded(s) => write!(f, "engine overloaded: {s}"),
            HaxError::Cli(s) => write!(f, "{s}"),
            HaxError::Io(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for HaxError {}

impl From<std::fmt::Error> for HaxError {
    fn from(e: std::fmt::Error) -> Self {
        HaxError::Io(format!("formatting failed: {e}"))
    }
}

/// Parses a model name (any zoo spelling, e.g. `resnet101`).
pub fn parse_model(s: &str) -> Result<haxconn_dnn::Model, HaxError> {
    haxconn_dnn::Model::from_name(s).ok_or_else(|| HaxError::UnknownModel(s.to_string()))
}

/// Parses a platform name, case-insensitively: the one alias table the
/// CLI, [`crate::spec::WorkloadSpec`] and `/v1/schedule` share. Accepts
/// the canonical ids plus short and vendor spellings (`orin`,
/// `agx-orin`, `xavier`, `sd865`, `snapdragon`, `qualcomm`, ...).
pub fn parse_platform(s: &str) -> Result<haxconn_soc::PlatformId, HaxError> {
    use haxconn_soc::PlatformId;
    match s.to_ascii_lowercase().as_str() {
        "orin" | "orin-agx" | "orinagx" | "agx-orin" => Ok(PlatformId::OrinAgx),
        "xavier" | "xavier-agx" | "xavieragx" | "agx-xavier" => Ok(PlatformId::XavierAgx),
        "sd865" | "snapdragon865" | "snapdragon-865" | "snapdragon" | "qualcomm" => {
            Ok(PlatformId::Snapdragon865)
        }
        _ => Err(HaxError::UnknownPlatform(s.to_string())),
    }
}

/// Parses an objective name (`latency` → Eq. 11, `throughput` → Eq. 10).
pub fn parse_objective(s: &str) -> Result<crate::problem::Objective, HaxError> {
    use crate::problem::Objective;
    match s.to_ascii_lowercase().as_str() {
        "latency" | "minmax" | "min-latency" => Ok(Objective::MinMaxLatency),
        "throughput" | "fps" | "max-throughput" => Ok(Objective::MaxThroughput),
        _ => Err(HaxError::UnknownObjective(s.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Objective;
    use haxconn_dnn::Model;
    use haxconn_soc::PlatformId;

    #[test]
    fn parse_helpers_accept_known_names() {
        assert_eq!(parse_model("googlenet").unwrap(), Model::GoogleNet);
        assert_eq!(parse_platform("orin").unwrap(), PlatformId::OrinAgx);
        assert_eq!(parse_platform("Xavier-AGX").unwrap(), PlatformId::XavierAgx);
        assert_eq!(
            parse_objective("latency").unwrap(),
            Objective::MinMaxLatency
        );
        assert_eq!(
            parse_objective("throughput").unwrap(),
            Objective::MaxThroughput
        );
    }

    #[test]
    fn parse_helpers_reject_unknown_names_with_context() {
        let e = parse_model("nope").unwrap_err();
        assert!(e.to_string().contains("unknown model 'nope'"));
        let e = parse_platform("pi5").unwrap_err();
        assert!(e.to_string().contains("unknown platform 'pi5'"));
        let e = parse_objective("speed").unwrap_err();
        assert!(e.to_string().contains("unknown objective 'speed'"));
    }

    #[test]
    fn error_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(HaxError::Cli("bad flag".into()));
        assert_eq!(e.to_string(), "bad flag");
    }
}
