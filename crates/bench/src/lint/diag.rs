//! Typed lint diagnostics.

use std::fmt;

/// How serious a diagnostic is.
///
/// The `appmult-lint` binary exits 1 on an error and 2 on a warning;
/// infos are reported but do not affect the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or informational finding (e.g. a const-foldable gate).
    Info,
    /// Suspicious but not behaviour-breaking (e.g. a dead gate).
    Warning,
    /// A contract violation: the artefact must not be used as-is.
    Error,
}

impl Severity {
    /// Lowercase identifier used in the JSON report.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of a verification pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Name of the pass that produced the finding (e.g. `"cycle"`).
    pub pass: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Where the finding is anchored (a signal like `n42`, a table cell
    /// like `wrt_x[w=3, x=7]`, or a design name).
    pub location: String,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Builds an [`Severity::Error`] diagnostic.
    pub fn error(
        pass: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            pass,
            severity: Severity::Error,
            location: location.into(),
            message: message.into(),
        }
    }

    /// Builds a [`Severity::Warning`] diagnostic.
    pub fn warning(
        pass: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            pass,
            severity: Severity::Warning,
            location: location.into(),
            message: message.into(),
        }
    }

    /// Builds a [`Severity::Info`] diagnostic.
    pub fn info(
        pass: &'static str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            pass,
            severity: Severity::Info,
            location: location.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.pass, self.location, self.message
        )
    }
}

/// Counts diagnostics of a given severity.
pub fn count_severity(diags: &[Diagnostic], severity: Severity) -> usize {
    diags.iter().filter(|d| d.severity == severity).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_all_fields() {
        let d = Diagnostic::error("cycle", "n5", "combinational cycle");
        let s = format!("{d}");
        assert!(s.contains("error"));
        assert!(s.contains("cycle"));
        assert!(s.contains("n5"));
    }

    #[test]
    fn severity_ordering_and_counts() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        let diags = vec![
            Diagnostic::error("a", "x", "m"),
            Diagnostic::warning("b", "y", "m"),
            Diagnostic::warning("c", "z", "m"),
            Diagnostic::info("d", "w", "m"),
        ];
        assert_eq!(count_severity(&diags, Severity::Error), 1);
        assert_eq!(count_severity(&diags, Severity::Warning), 2);
        assert_eq!(count_severity(&diags, Severity::Info), 1);
        assert_eq!(count_severity(&diags[1..], Severity::Error), 0);
    }
}
