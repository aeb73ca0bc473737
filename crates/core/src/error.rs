//! Error type shared by the MapUpdate model crates.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by workflow construction, engine configuration, and
/// executors.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A workflow definition is inconsistent (duplicate names, unknown
    /// streams, no external input, ...).
    Workflow(String),
    /// An engine setting could not be honoured (a codec name, an ingest
    /// WAL, a listener, a join).
    Config(String),
    /// JSON text could not be parsed. Carries offset and message.
    Json { offset: usize, message: String },
    /// An MBF binary payload could not be encoded or decoded. Carries
    /// offset and message.
    Mbf { offset: usize, message: String },
    /// An event referenced a stream that the workflow does not declare.
    UnknownStream(String),
    /// An operator name was not registered with the executor.
    UnknownOperator(String),
    /// An event was pushed into a non-external stream from outside, or an
    /// operator published to an external stream (the paper assumes "no
    /// mappers nor updaters can emit events into such streams", §5).
    ExternalStreamViolation(String),
    /// A cyclic workflow exceeded the executor's step budget. The paper's
    /// model permits cycles; the reference executor bounds them so tests
    /// terminate.
    LoopBudgetExceeded { steps: u64 },
    /// An operator implementation was registered under a name that does not
    /// match the workflow declaration.
    OperatorMismatch { expected: String, got: String },
    /// The ingest WAL failed a `write` or an fsync. The node accepts no
    /// further ingest until it is restarted on a healthy disk.
    IngestLog(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Workflow(msg) => write!(f, "workflow error: {msg}"),
            Error::Config(msg) => write!(f, "config error: {msg}"),
            Error::Json { offset, message } => {
                write!(f, "json error at byte {offset}: {message}")
            }
            Error::Mbf { offset, message } => {
                write!(f, "mbf error at byte {offset}: {message}")
            }
            Error::UnknownStream(name) => write!(f, "unknown stream: {name}"),
            Error::UnknownOperator(name) => write!(f, "unknown operator: {name}"),
            Error::ExternalStreamViolation(name) => {
                write!(f, "illegal publish/push on stream: {name}")
            }
            Error::LoopBudgetExceeded { steps } => {
                write!(f, "cyclic workflow exceeded the step budget of {steps}")
            }
            Error::OperatorMismatch { expected, got } => {
                write!(
                    f,
                    "operator name mismatch: workflow declares {expected:?}, impl says {got:?}"
                )
            }
            Error::IngestLog(msg) => write!(f, "ingest WAL failed: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::Workflow("x".into()), "workflow error: x"),
            (Error::Config("y".into()), "config error: y"),
            (Error::Json { offset: 3, message: "bad".into() }, "json error at byte 3: bad"),
            (Error::UnknownStream("S9".into()), "unknown stream: S9"),
            (Error::UnknownOperator("U9".into()), "unknown operator: U9"),
            (Error::ExternalStreamViolation("S1".into()), "illegal publish/push on stream: S1"),
            (
                Error::LoopBudgetExceeded { steps: 7 },
                "cyclic workflow exceeded the step budget of 7",
            ),
            (Error::IngestLog("no space".into()), "ingest WAL failed: no space"),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_std_error<E: std::error::Error>(_e: E) {}
        assert_std_error(Error::Workflow("w".into()));
    }
}
