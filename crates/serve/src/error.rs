//! Typed errors for the serve layer and their wire representation.
//!
//! Every failure a client can trigger has a stable machine-readable wire
//! code; every [`ModelError`] variant maps to its own code so a remote
//! caller can distinguish "your profile names a class the model lacks"
//! from "the server is overloaded" without string matching. Socket and
//! parse failures are carried as typed variants too — the serve crate has
//! no `unwrap`/`expect` on I/O or wire paths.

use std::error::Error;
use std::fmt;

use hmdiv_core::ModelError;

use crate::json::Json;

/// Error type for the serve crate: protocol, registry, admission, and
/// connection failures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request line is not valid JSON.
    Parse {
        /// Parser diagnostics (with byte offset).
        detail: String,
    },
    /// The request is well-formed JSON but violates the protocol shape
    /// (missing field, wrong type, bad value).
    BadRequest {
        /// What was wrong.
        detail: String,
    },
    /// The request names a verb the server does not implement.
    UnknownVerb {
        /// The offending verb.
        verb: String,
    },
    /// The request references a registry id that is not loaded.
    UnknownArtifact {
        /// The offending id.
        id: String,
    },
    /// A model-layer failure (class resolution, validation, …).
    Model(ModelError),
    /// Static analysis refused the artifact at load: the wire code *is*
    /// the stable `HM0xx` diagnostic code, so clients can react to the
    /// specific fault without string matching.
    Rejected {
        /// The `HM0xx` code of the first error-severity diagnostic.
        code: String,
        /// That diagnostic's message.
        detail: String,
    },
    /// Admitting the evaluation would push the cost of evaluations in
    /// progress past the bound; the client should back off and retry.
    /// This is the explicit backpressure signal — the server sheds load
    /// instead of buffering without bound.
    Overloaded {
        /// The admission capacity that was exhausted.
        capacity: usize,
    },
    /// The request's deadline expired before its evaluation started.
    DeadlineExceeded,
    /// The `trace` verb was called but the server was started without a
    /// flight recorder (tracing disabled).
    TraceDisabled,
    /// A request line exceeded the configured size limit. The offending
    /// line is discarded up to the next newline and the connection stays
    /// open — newline framing survives, so the client can keep going.
    LineTooLong {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// A registry snapshot could not be saved or restored (I/O failure,
    /// corrupt file, or a content id that no longer matches its payload).
    Snapshot {
        /// What went wrong.
        detail: String,
    },
    /// A socket-level failure.
    Io {
        /// The underlying error, stringified.
        detail: String,
    },
    /// An error reported by a remote server (client side only): the wire
    /// code and message, preserved verbatim.
    Remote {
        /// The wire error code.
        code: String,
        /// The human-readable message.
        message: String,
    },
    /// The fleet router lost the backend that owned this request: the
    /// replica was ejected (or its connection died) with the request in
    /// flight. The request may or may not have executed; idempotent verbs
    /// are safe to retry and will re-hash to a surviving replica.
    BackendUnavailable {
        /// The backend address that became unavailable.
        backend: String,
    },
}

impl ServeError {
    /// The stable machine-readable wire code for this error.
    #[must_use]
    pub fn code(&self) -> &str {
        match self {
            ServeError::Parse { .. } => "parse_error",
            ServeError::BadRequest { .. } => "bad_request",
            ServeError::UnknownVerb { .. } => "unknown_verb",
            ServeError::UnknownArtifact { .. } => "unknown_model",
            ServeError::Model(e) => match e {
                ModelError::MissingClass { .. } => "missing_class",
                ModelError::UnknownClass { .. } => "unknown_class",
                ModelError::Empty { .. } => "empty",
                ModelError::DuplicateClass { .. } => "duplicate_class",
                ModelError::UniverseMismatch { .. } => "universe_mismatch",
                ModelError::InvalidFactor { .. } => "invalid_factor",
                ModelError::Prob(_) => "prob",
                // `ModelError` is non-exhaustive; future variants degrade
                // to the generic model code rather than breaking the wire.
                _ => "model_error",
            },
            ServeError::Rejected { code, .. } => code,
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::DeadlineExceeded => "deadline_exceeded",
            ServeError::TraceDisabled => "trace_disabled",
            ServeError::LineTooLong { .. } => "line_too_long",
            ServeError::Snapshot { .. } => "snapshot_error",
            ServeError::Io { .. } => "io",
            ServeError::Remote { code, .. } => code,
            ServeError::BackendUnavailable { .. } => "backend_unavailable",
        }
    }

    /// How this error classifies as a flight-recorder outcome: shed and
    /// deadline events keep their distinguished variants, admission-gate
    /// refusals carry their `HM0xx` code, everything else its wire code.
    #[must_use]
    pub fn trace_outcome(&self) -> hmdiv_obs::TraceOutcome {
        match self {
            ServeError::Overloaded { .. } => hmdiv_obs::TraceOutcome::Overloaded,
            ServeError::DeadlineExceeded => hmdiv_obs::TraceOutcome::DeadlineExceeded,
            ServeError::Rejected { code, .. } => hmdiv_obs::TraceOutcome::Rejected(code.clone()),
            other => hmdiv_obs::TraceOutcome::Error(other.code().to_owned()),
        }
    }

    /// The wire representation: `{"code": …, "message": …}`.
    #[must_use]
    pub fn to_wire(&self) -> Json {
        Json::Obj(vec![
            ("code".to_owned(), Json::str(self.code())),
            ("message".to_owned(), Json::str(self.to_string())),
        ])
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse { detail } => write!(f, "invalid JSON: {detail}"),
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::UnknownVerb { verb } => write!(f, "unknown verb `{verb}`"),
            ServeError::UnknownArtifact { id } => {
                write!(f, "no model or cohort loaded under id `{id}`")
            }
            ServeError::Model(e) => write!(f, "{e}"),
            ServeError::Rejected { code, detail } => {
                write!(f, "artifact rejected by static analysis [{code}]: {detail}")
            }
            ServeError::Overloaded { capacity } => {
                write!(f, "request queue full ({capacity} pending); retry later")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline expired before evaluation"),
            ServeError::TraceDisabled => write!(
                f,
                "tracing is disabled on this server (start it with a trace capacity)"
            ),
            ServeError::LineTooLong { limit } => {
                write!(
                    f,
                    "request line exceeds {limit} bytes; discarded up to the next newline"
                )
            }
            ServeError::Snapshot { detail } => write!(f, "registry snapshot failed: {detail}"),
            ServeError::Io { detail } => write!(f, "i/o error: {detail}"),
            ServeError::Remote { code, message } => write!(f, "server error [{code}]: {message}"),
            ServeError::BackendUnavailable { backend } => {
                write!(
                    f,
                    "backend {backend} is unavailable; the request was in flight when it was \
                     lost and may be retried against a surviving replica"
                )
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmdiv_core::ClassId;

    /// One instance of every `ModelError` variant, for exhaustive wire-code
    /// coverage here and in the protocol tests.
    pub(crate) fn all_model_errors() -> Vec<ModelError> {
        vec![
            ModelError::MissingClass {
                class: ClassId::new("ghost"),
            },
            ModelError::UnknownClass {
                class: ClassId::new("ghost"),
            },
            ModelError::Empty { context: "profile" },
            ModelError::DuplicateClass {
                class: ClassId::new("easy"),
            },
            ModelError::UniverseMismatch {
                detail: "2 classes vs 1".into(),
            },
            ModelError::InvalidFactor {
                value: -1.0,
                context: "factor",
            },
            ModelError::Prob(hmdiv_prob::ProbError::InvalidConfidence { level: 0.0 }),
        ]
    }

    #[test]
    fn every_model_error_has_a_distinct_code() {
        let codes: Vec<String> = all_model_errors()
            .into_iter()
            .map(|e| ServeError::from(e).code().to_owned())
            .collect();
        let expected = [
            "missing_class",
            "unknown_class",
            "empty",
            "duplicate_class",
            "universe_mismatch",
            "invalid_factor",
            "prob",
        ];
        assert_eq!(codes, expected);
    }

    #[test]
    fn wire_form_carries_code_and_message() {
        let e = ServeError::Overloaded { capacity: 8 };
        let wire = e.to_wire();
        assert_eq!(wire.get("code").unwrap().as_str(), Some("overloaded"));
        assert!(wire
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("queue full"));
    }

    #[test]
    fn displays_are_nonempty_and_sources_chain() {
        let errors = [
            ServeError::Parse { detail: "x".into() },
            ServeError::BadRequest { detail: "y".into() },
            ServeError::UnknownVerb { verb: "zap".into() },
            ServeError::UnknownArtifact { id: "m0".into() },
            ServeError::DeadlineExceeded,
            ServeError::TraceDisabled,
            ServeError::LineTooLong { limit: 10 },
            ServeError::Snapshot {
                detail: "bad file".into(),
            },
            ServeError::Io {
                detail: "broken".into(),
            },
            ServeError::Remote {
                code: "overloaded".into(),
                message: "busy".into(),
            },
            ServeError::BackendUnavailable {
                backend: "127.0.0.1:7415".into(),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
        let chained = ServeError::from(ModelError::Empty { context: "t" });
        assert!(chained.source().is_some());
        assert!(ServeError::DeadlineExceeded.source().is_none());
    }

    #[test]
    fn trace_outcomes_classify_shed_and_rejection() {
        use hmdiv_obs::TraceOutcome;
        assert_eq!(
            ServeError::Overloaded { capacity: 2 }.trace_outcome(),
            TraceOutcome::Overloaded
        );
        assert_eq!(
            ServeError::DeadlineExceeded.trace_outcome(),
            TraceOutcome::DeadlineExceeded
        );
        assert_eq!(
            ServeError::Rejected {
                code: "HM030".into(),
                detail: "x".into()
            }
            .trace_outcome(),
            TraceOutcome::Rejected("HM030".into())
        );
        assert_eq!(
            ServeError::BadRequest { detail: "y".into() }.trace_outcome(),
            TraceOutcome::Error("bad_request".into())
        );
        assert_eq!(ServeError::TraceDisabled.code(), "trace_disabled");
        assert_eq!(
            ServeError::LineTooLong { limit: 8 }.code(),
            "line_too_long",
            "typed framing error keeps its stable wire code"
        );
        assert_eq!(
            ServeError::Snapshot { detail: "x".into() }.code(),
            "snapshot_error"
        );
        assert_eq!(
            ServeError::BackendUnavailable {
                backend: "127.0.0.1:7415".into()
            }
            .code(),
            "backend_unavailable",
            "failover error keeps its stable wire code"
        );
    }
}
