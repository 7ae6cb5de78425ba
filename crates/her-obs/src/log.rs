//! Process-wide leveled logging to stderr.
//!
//! Quiet by default: the CLI maps `-v` to [`Level::Info`] and `-vv` to
//! [`Level::Debug`]. Warnings are always shown. Diagnostics go through
//! the [`info!`](crate::info)/[`debug!`](crate::debug)/[`warn!`](crate::warn)
//! macros, which skip formatting entirely when the level is off (and
//! compile to nothing without the `enabled` feature, except warnings,
//! which stay).

use std::sync::atomic::{AtomicU8, Ordering};

/// Severity, ordered: a message is emitted when its level is at or
/// below the configured verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Always emitted (verbosity 0).
    Warn = 0,
    /// `-v`.
    Info = 1,
    /// `-vv`.
    Debug = 2,
}

static VERBOSITY: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide verbosity: 0 quiet, 1 info, 2 debug.
pub fn set_verbosity(v: u8) {
    VERBOSITY.store(v.min(2), Ordering::Relaxed);
}

pub fn verbosity() -> u8 {
    VERBOSITY.load(Ordering::Relaxed)
}

/// Whether a message at `level` would currently be emitted.
pub fn enabled(level: Level) -> bool {
    match level {
        Level::Warn => true,
        _ => crate::ENABLED && level as u8 <= verbosity(),
    }
}

/// Emits one log line to stderr. Prefer the macros, which check
/// [`enabled`] before formatting.
pub fn log(level: Level, message: std::fmt::Arguments<'_>) {
    let tag = match level {
        Level::Warn => "warn",
        Level::Info => "info",
        Level::Debug => "debug",
    };
    eprintln!("her [{tag}] {message}");
}

/// Logs at info level (`-v`).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            $crate::log::log($crate::log::Level::Info, format_args!($($arg)*));
        }
    };
}

/// Logs at debug level (`-vv`).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            $crate::log::log($crate::log::Level::Debug, format_args!($($arg)*));
        }
    };
}

/// Logs a warning (always emitted).
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            $crate::log::log($crate::log::Level::Warn, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_gating() {
        set_verbosity(0);
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_verbosity(1);
        assert_eq!(enabled(Level::Info), crate::ENABLED);
        assert!(!enabled(Level::Debug));
        set_verbosity(2);
        assert_eq!(enabled(Level::Debug), crate::ENABLED);
        set_verbosity(9);
        assert_eq!(verbosity(), 2);
        set_verbosity(0);
    }
}
