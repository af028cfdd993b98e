//! A timestamped event log.
//!
//! Every daemon and experiment appends human-readable lines here; the
//! rendered log doubles as the "scheduler records all outputs … so the
//! students can review and analyze the performance of their Hadoop
//! platforms" artifact from Section III-D.

use std::fmt;

use hl_common::SimTime;

/// One log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Virtual timestamp.
    pub at: SimTime,
    /// Emitting component ("namenode", "tasktracker/node003", ...).
    pub source: String,
    /// Message text.
    pub message: String,
}

/// An append-only, optionally disabled event log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    entries: Vec<TraceEntry>,
    /// When false, `log` is a no-op (benches disable tracing).
    pub enabled: bool,
}

impl EventLog {
    /// An enabled log.
    pub fn new() -> Self {
        EventLog { entries: Vec::new(), enabled: true }
    }

    /// Append a line.
    ///
    /// Disabled logs return before allocating anything, but the caller has
    /// usually already paid to build the message (a `format!` argument is
    /// evaluated before the call). Hot paths should prefer
    /// [`EventLog::log_with`], which defers that construction too.
    #[inline]
    pub fn log(&mut self, at: SimTime, source: &str, message: impl fmt::Display) {
        if !self.enabled {
            return;
        }
        self.entries.push(TraceEntry {
            at,
            source: source.to_string(),
            message: message.to_string(),
        });
    }

    /// Append a line with a lazily-built message: `message` is only invoked
    /// when the log is enabled, so a disabled log costs one branch even
    /// where the message would be an expensive `format!`.
    #[inline]
    pub fn log_with(&mut self, at: SimTime, source: &str, message: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        self.entries.push(TraceEntry { at, source: source.to_string(), message: message() });
    }

    /// All entries in append order (timestamps are monotone because the
    /// DES only moves forward).
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Entries whose source contains `needle`.
    pub fn from_source<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceEntry> {
        self.entries.iter().filter(move |e| e.source.contains(needle))
    }

    /// Entries whose message contains `needle`.
    pub fn grep<'a>(&'a self, needle: &'a str) -> impl Iterator<Item = &'a TraceEntry> {
        self.entries.iter().filter(move |e| e.message.contains(needle))
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl fmt::Display for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "[{}] {}: {}", e.at, e.source, e.message)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logs_and_renders() {
        let mut log = EventLog::new();
        log.log(SimTime(1_000_000), "namenode", "safe mode ON");
        log.log(SimTime(2_000_000), "datanode/node001", "sent block report (10 blocks)");
        assert_eq!(log.len(), 2);
        let text = log.to_string();
        assert!(text.contains("[t=1.00s] namenode: safe mode ON"));
        assert!(text.contains("datanode/node001"));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog { enabled: false, ..EventLog::new() };
        log.log(SimTime::ZERO, "x", "y");
        assert!(log.is_empty());
    }

    #[test]
    fn disabled_log_never_builds_lazy_messages() {
        let mut log = EventLog { enabled: false, ..EventLog::new() };
        let mut built = false;
        log.log_with(SimTime::ZERO, "x", || {
            built = true;
            "expensive".to_string()
        });
        assert!(!built, "disabled log must not evaluate the message closure");
        assert!(log.is_empty());

        log.enabled = true;
        log.log_with(SimTime(3), "y", || "cheap now".to_string());
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].message, "cheap now");
        assert_eq!(log.entries()[0].at, SimTime(3));
    }

    #[test]
    fn grep_and_source_filters() {
        let mut log = EventLog::new();
        log.log(SimTime(0), "namenode", "safe mode ON");
        log.log(SimTime(1), "namenode", "safe mode OFF");
        log.log(SimTime(2), "jobtracker", "job_0001 submitted");
        assert_eq!(log.grep("safe mode").count(), 2);
        assert_eq!(log.from_source("namenode").count(), 2);
        assert_eq!(log.grep("job_").count(), 1);
        log.clear();
        assert!(log.is_empty());
    }
}
