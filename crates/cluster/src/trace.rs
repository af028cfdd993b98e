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

/// An append-only event log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    entries: Vec<TraceEntry>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a line. A message built with `format_args!` is formatted
    /// once, straight into the entry.
    #[inline]
    pub fn log(&mut self, at: SimTime, source: &str, message: impl fmt::Display) {
        self.entries.push(TraceEntry {
            at,
            source: source.to_string(),
            message: message.to_string(),
        });
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
