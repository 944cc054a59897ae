//! The `OPT_TRACE` mode knob.

/// Environment variable selecting the trace mode (`off` or `spans`).
pub const ENV_TRACE: &str = "OPT_TRACE";

/// How much the tracer records.
///
/// * [`TraceMode::Off`] (the default) — nothing is recorded; the
///   instrumentation points reduce to one thread-local read and a branch,
///   so a traced binary pays no measurable cost when tracing is off.
/// * [`TraceMode::Spans`] — the deterministic span tree: iteration,
///   pipeline slots, optimizer/DP/embedding phases, compressor
///   encode/decode, and the worker-level send/recv spans. The *structure*
///   of this tree (everything except wall-clock timestamps) is identical
///   across kernel-thread counts and across Local vs TCP transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing (the default).
    #[default]
    Off,
    /// Record the deterministic span tree.
    Spans,
}

impl TraceMode {
    /// Parses a knob value (`"off"`, `"spans"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(TraceMode::Off),
            "spans" => Some(TraceMode::Spans),
            _ => None,
        }
    }

    /// Reads the mode from `OPT_TRACE`; unset or unrecognized means
    /// [`TraceMode::Off`].
    pub fn from_env() -> Self {
        std::env::var(ENV_TRACE)
            .ok()
            .and_then(|v| Self::parse(&v))
            .unwrap_or_default()
    }

    /// Whether any recording happens at all.
    pub fn enabled(self) -> bool {
        self != TraceMode::Off
    }

    /// The canonical knob spelling of this mode.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Spans => "spans",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_canonical_spellings() {
        for mode in [TraceMode::Off, TraceMode::Spans] {
            assert_eq!(TraceMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(TraceMode::parse("full"), None);
        assert_eq!(TraceMode::parse("verbose"), None);
        assert_eq!(TraceMode::parse(""), None);
    }

    #[test]
    fn default_is_off() {
        assert_eq!(TraceMode::default(), TraceMode::Off);
        assert!(!TraceMode::Off.enabled());
        assert!(TraceMode::Spans.enabled());
    }
}
