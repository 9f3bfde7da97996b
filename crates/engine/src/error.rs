//! Engine error type, wrapping [`hefv_core::Error`], plus the
//! machine-readable refusal taxonomy that crosses the wire.
//!
//! Every [`EngineError`] maps onto exactly one [`ErrorCode`] — a small,
//! stable `u8` namespace carried in `HEVP` error frames so clients and
//! proxying routers can react to *what kind* of refusal happened
//! (back off, re-route, give up) without parsing rendered text. Codes
//! split into **retryable** (the same request may succeed later:
//! overload, memory pressure, shutdown, transient internal failures)
//! and **terminal** (retrying verbatim cannot help: validation,
//! infeasible deadlines, exhausted noise budgets, quarantined
//! signatures). Retryable refusals may carry an optional
//! retry-after-µs hint ([`EngineError::retry_after_us`]).

use crate::registry::TenantId;
use core::fmt;

/// The wire-level error taxonomy: one byte per refusal class.
///
/// The discriminants are the on-wire values — append-only; never
/// renumber. Byte 11 is retired (it named a refusal of the deleted
/// server-side scalar batching front end) and is never reused: an
/// incoming 11 decodes as an unknown code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ErrorCode {
    /// The engine failed while executing (worker panic, lost reply,
    /// transport failure inside the cluster). Not the client's fault;
    /// retryable.
    Internal = 0,
    /// Queue or in-flight budget full — shed at admission. Retryable.
    Overload = 1,
    /// The priced cost plus current backlog cannot meet the request's
    /// deadline; refused without executing. Terminal for this deadline.
    DeadlineInfeasible = 2,
    /// Scratch-arena bytes above the configured high-water mark.
    /// Retryable once pressure drains.
    MemoryPressure = 3,
    /// The tracked noise budget cannot close over the op graph at the
    /// current parameters. Terminal.
    NoiseBudgetExhausted = 4,
    /// This (tenant, op-class) signature panicked repeatedly and is
    /// quarantined for a decaying TTL. Terminal until the TTL lapses.
    Quarantined = 5,
    /// The engine is draining for shutdown. Retryable (elsewhere, or
    /// after restart).
    ShuttingDown = 6,
    /// The request failed validation. Terminal.
    Validation = 7,
    /// No key material registered for the tenant. Terminal.
    UnknownTenant = 8,
    /// The tenant lacks the key class an op needs. Terminal.
    MissingKey = 9,
    /// Malformed wire frame. Terminal.
    Wire = 10,
    /// An integrity check failed: a net envelope's CRC32 trailer did
    /// not match its payload, or an `HEVR` registry snapshot was torn
    /// or bit-flipped. The payload was rejected *before* decode — the
    /// original request never executed, so a retry (over a clean link
    /// or from a clean snapshot) is safe. Retryable.
    IntegrityFailure = 12,
}

/// Every code, for exhaustive iteration (docs tables, metrics labels).
pub const ERROR_CODES: [ErrorCode; 12] = [
    ErrorCode::Internal,
    ErrorCode::Overload,
    ErrorCode::DeadlineInfeasible,
    ErrorCode::MemoryPressure,
    ErrorCode::NoiseBudgetExhausted,
    ErrorCode::Quarantined,
    ErrorCode::ShuttingDown,
    ErrorCode::Validation,
    ErrorCode::UnknownTenant,
    ErrorCode::MissingKey,
    ErrorCode::Wire,
    ErrorCode::IntegrityFailure,
];

impl ErrorCode {
    /// The on-wire byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Parses an on-wire byte; `None` for bytes outside the taxonomy.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        ERROR_CODES.into_iter().find(|c| c.as_u8() == b)
    }

    /// Whether a verbatim retry of the same request may succeed later.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Internal
                | ErrorCode::Overload
                | ErrorCode::MemoryPressure
                | ErrorCode::ShuttingDown
                | ErrorCode::IntegrityFailure
        )
    }

    /// Stable lower-snake name (metrics labels, docs).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Internal => "internal",
            ErrorCode::Overload => "overload",
            ErrorCode::DeadlineInfeasible => "deadline_infeasible",
            ErrorCode::MemoryPressure => "memory_pressure",
            ErrorCode::NoiseBudgetExhausted => "noise_budget_exhausted",
            ErrorCode::Quarantined => "quarantined",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Validation => "validation",
            ErrorCode::UnknownTenant => "unknown_tenant",
            ErrorCode::MissingKey => "missing_key",
            ErrorCode::Wire => "wire",
            ErrorCode::IntegrityFailure => "integrity_failure",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything the evaluation engine can reject or fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The underlying FV library failed (context construction, wire decode).
    Core(hefv_core::Error),
    /// The request graph failed validation before scheduling.
    Validation(String),
    /// The request names a tenant with no registered key material.
    UnknownTenant(TenantId),
    /// The tenant is registered but lacks the key an op needs.
    MissingKey {
        /// The tenant whose key set is incomplete.
        tenant: TenantId,
        /// Which key class is missing (`"relin"` or `"galois"`).
        which: &'static str,
    },
    /// The engine is shutting down and no longer accepts work.
    QueueClosed,
    /// The engine itself failed while executing a job (worker panic).
    /// Unlike [`EngineError::Validation`], this is not the client's
    /// fault and the request may succeed on retry after a fix.
    Internal(String),
    /// Shed at admission: queue or in-flight budget full.
    Overload {
        /// Suggested wait before retrying, from the backlog estimate.
        retry_after_us: Option<u64>,
    },
    /// Refused at admission: priced cost + queue backlog cannot meet
    /// the request's deadline, so executing it would only burn cycles.
    DeadlineInfeasible {
        /// Backlog + this job's priced cost, in virtual-clock µs.
        estimated_us: u64,
        /// The deadline the request asked for.
        deadline_us: u64,
    },
    /// Refused at admission: scratch-arena bytes above the configured
    /// high-water mark.
    MemoryPressure {
        /// Pooled arena bytes at refusal time.
        pooled_bytes: u64,
        /// The configured high-water mark.
        high_water_bytes: u64,
    },
    /// Refused at admission: the tracked noise budget cannot close
    /// over the op graph at the current parameters.
    NoiseBudgetExhausted {
        /// Whole-graph noise growth the model predicts, in bits.
        needed_bits: u64,
        /// The parameter set's decryption-failure threshold, in bits.
        budget_bits: u64,
    },
    /// Refused at admission: this (tenant, op-class) signature panicked
    /// repeatedly and is quarantined until its TTL decays.
    Quarantined {
        /// Remaining quarantine TTL.
        retry_after_us: u64,
    },
    /// An integrity check caught corruption before decode: a net
    /// envelope whose CRC32 trailer disagrees with its payload, or a
    /// torn/bit-flipped `HEVR` registry snapshot. Nothing was executed
    /// or partially applied.
    IntegrityFailure(String),
    /// A typed refusal proxied from a remote shard: the original code
    /// and hint survive the hop instead of degenerating to a transport
    /// error. `message` is the origin's rendered text.
    Remote {
        /// The origin's refusal class.
        code: ErrorCode,
        /// The origin's retry-after hint, if any.
        retry_after_us: Option<u64>,
        /// The origin's rendered error message.
        message: String,
    },
}

impl EngineError {
    /// The wire-level refusal class of this error.
    pub fn code(&self) -> ErrorCode {
        match self {
            EngineError::Core(_) => ErrorCode::Wire,
            EngineError::Validation(_) => ErrorCode::Validation,
            EngineError::UnknownTenant(_) => ErrorCode::UnknownTenant,
            EngineError::MissingKey { .. } => ErrorCode::MissingKey,
            EngineError::QueueClosed => ErrorCode::ShuttingDown,
            EngineError::Internal(_) => ErrorCode::Internal,
            EngineError::Overload { .. } => ErrorCode::Overload,
            EngineError::DeadlineInfeasible { .. } => ErrorCode::DeadlineInfeasible,
            EngineError::MemoryPressure { .. } => ErrorCode::MemoryPressure,
            EngineError::NoiseBudgetExhausted { .. } => ErrorCode::NoiseBudgetExhausted,
            EngineError::Quarantined { .. } => ErrorCode::Quarantined,
            EngineError::IntegrityFailure(_) => ErrorCode::IntegrityFailure,
            EngineError::Remote { code, .. } => *code,
        }
    }

    /// Whether a verbatim retry may succeed later (see
    /// [`ErrorCode::retryable`]).
    pub fn retryable(&self) -> bool {
        self.code().retryable()
    }

    /// The retry-after hint to put on the wire, if this refusal
    /// carries one.
    pub fn retry_after_us(&self) -> Option<u64> {
        match self {
            EngineError::Overload { retry_after_us } => *retry_after_us,
            EngineError::Quarantined { retry_after_us } => Some(*retry_after_us),
            EngineError::Remote { retry_after_us, .. } => *retry_after_us,
            _ => None,
        }
    }

    /// Reconstructs a typed error from its wire representation, so a
    /// proxying router can re-raise a remote refusal without losing
    /// its class or hint.
    pub fn from_wire(code: ErrorCode, retry_after_us: Option<u64>, message: String) -> EngineError {
        EngineError::Remote {
            code,
            retry_after_us,
            message,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "core: {e}"),
            EngineError::Validation(r) => write!(f, "invalid request: {r}"),
            EngineError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            EngineError::MissingKey { tenant, which } => {
                write!(f, "tenant {tenant} has no {which} key registered")
            }
            EngineError::QueueClosed => write!(f, "engine is shut down"),
            EngineError::Internal(r) => write!(f, "internal engine failure: {r}"),
            EngineError::Overload { retry_after_us } => match retry_after_us {
                Some(us) => write!(f, "overloaded, retry after {us} µs"),
                None => write!(f, "overloaded"),
            },
            EngineError::DeadlineInfeasible {
                estimated_us,
                deadline_us,
            } => write!(
                f,
                "deadline infeasible: backlog + cost ≈ {estimated_us} µs \
                 exceeds the {deadline_us} µs deadline"
            ),
            EngineError::MemoryPressure {
                pooled_bytes,
                high_water_bytes,
            } => write!(
                f,
                "memory pressure: {pooled_bytes} pooled bytes above the \
                 {high_water_bytes}-byte high-water mark"
            ),
            EngineError::NoiseBudgetExhausted {
                needed_bits,
                budget_bits,
            } => write!(
                f,
                "noise budget exhausted: graph needs ≈ {needed_bits} bits, \
                 budget is {budget_bits} bits"
            ),
            EngineError::Quarantined { retry_after_us } => write!(
                f,
                "request signature quarantined after repeated worker \
                 panics, retry after {retry_after_us} µs"
            ),
            EngineError::IntegrityFailure(r) => write!(f, "integrity failure: {r}"),
            EngineError::Remote { code, message, .. } => {
                write!(f, "remote {code}: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<hefv_core::Error> for EngineError {
    fn from(e: hefv_core::Error) -> Self {
        EngineError::Core(e)
    }
}

/// Bridge for `Result<_, String>` callers (examples, the cloud app layer).
impl From<EngineError> for String {
    fn from(e: EngineError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_core_errors_with_source() {
        let e = EngineError::from(hefv_core::Error::Wire("bad magic".into()));
        assert!(e.to_string().contains("bad magic"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn display_is_informative() {
        let e = EngineError::MissingKey {
            tenant: 7,
            which: "relin",
        };
        assert_eq!(e.to_string(), "tenant 7 has no relin key registered");
        assert_eq!(
            EngineError::UnknownTenant(3).to_string(),
            "unknown tenant 3"
        );
    }

    #[test]
    fn codes_roundtrip_the_wire_byte() {
        for code in ERROR_CODES {
            assert_eq!(ErrorCode::from_u8(code.as_u8()), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0xF0), None);
        // The discriminants are an append-only namespace: every live code
        // keeps its byte, and the retired byte 11 decodes to nothing.
        let bytes: Vec<u8> = ERROR_CODES.iter().map(|c| c.as_u8()).collect();
        assert_eq!(bytes, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]);
        assert_eq!(ErrorCode::from_u8(11), None);
    }

    #[test]
    fn retryability_splits_the_taxonomy() {
        for code in [
            ErrorCode::Internal,
            ErrorCode::Overload,
            ErrorCode::MemoryPressure,
            ErrorCode::ShuttingDown,
            ErrorCode::IntegrityFailure,
        ] {
            assert!(code.retryable(), "{code} must be retryable");
        }
        for code in [
            ErrorCode::DeadlineInfeasible,
            ErrorCode::NoiseBudgetExhausted,
            ErrorCode::Quarantined,
            ErrorCode::Validation,
            ErrorCode::UnknownTenant,
            ErrorCode::MissingKey,
            ErrorCode::Wire,
        ] {
            assert!(!code.retryable(), "{code} must be terminal");
        }
    }

    #[test]
    fn every_error_maps_to_a_code_and_hint() {
        assert_eq!(
            EngineError::Overload {
                retry_after_us: Some(1500)
            }
            .retry_after_us(),
            Some(1500)
        );
        assert_eq!(EngineError::QueueClosed.code(), ErrorCode::ShuttingDown);
        assert_eq!(
            EngineError::Quarantined {
                retry_after_us: 9000
            }
            .retry_after_us(),
            Some(9000)
        );
        assert_eq!(
            EngineError::DeadlineInfeasible {
                estimated_us: 100,
                deadline_us: 10
            }
            .retry_after_us(),
            None
        );
    }

    #[test]
    fn wire_reconstruction_preserves_code_and_hint() {
        let original = EngineError::Overload {
            retry_after_us: Some(250),
        };
        let proxied = EngineError::from_wire(
            original.code(),
            original.retry_after_us(),
            original.to_string(),
        );
        assert_eq!(proxied.code(), ErrorCode::Overload);
        assert_eq!(proxied.retry_after_us(), Some(250));
        assert!(proxied.retryable());
        assert!(proxied.to_string().contains("overloaded"));
    }
}
