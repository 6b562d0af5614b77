//! Plain-text task-set files for the CLI tools.
//!
//! Format: one task per line, `period_ms wcet_ms [offset_ms]`, blank lines
//! and `#` comments ignored. Example:
//!
//! ```text
//! # the paper's Table 2 set
//! 8   3
//! 10  3
//! 14  1
//! ```

use core::fmt;

use rtdvs_core::task::{Task, TaskSet};
use rtdvs_core::time::{Time, Work};

/// Errors parsing a task file.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskFileError {
    /// A line did not have 2 or 3 numeric fields.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
    /// A task was semantically invalid.
    BadTask {
        /// 1-based line number.
        line: usize,
        /// The underlying message.
        message: String,
    },
    /// The file contained no tasks.
    Empty,
}

impl fmt::Display for TaskFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskFileError::BadLine { line, content } => {
                write!(
                    f,
                    "line {line}: expected `period_ms wcet_ms [offset_ms]`, got {content:?}"
                )
            }
            TaskFileError::BadTask { line, message } => write!(f, "line {line}: {message}"),
            TaskFileError::Empty => write!(f, "no tasks found in file"),
        }
    }
}

impl std::error::Error for TaskFileError {}

/// Parses a task set from the text format.
///
/// # Errors
///
/// Returns [`TaskFileError`] for malformed lines, invalid tasks, or an
/// empty file.
pub fn parse_task_set(text: &str) -> Result<TaskSet, TaskFileError> {
    let mut tasks = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        // `nan` and `inf` parse as f64 but are no time at all.
        let fields: Vec<f64> = content
            .split_whitespace()
            .map(|f| f.parse::<f64>().ok().filter(|x| x.is_finite()))
            .collect::<Option<_>>()
            .ok_or_else(|| TaskFileError::BadLine {
                line,
                content: content.to_owned(),
            })?;
        let (period, wcet, offset) = match fields.as_slice() {
            [p, c] => (*p, *c, 0.0),
            [p, c, o] => (*p, *c, *o),
            _ => {
                return Err(TaskFileError::BadLine {
                    line,
                    content: content.to_owned(),
                })
            }
        };
        let task = Task::with_offset(
            Time::from_ms(period),
            Work::from_ms(wcet),
            Time::from_ms(offset),
        )
        .map_err(|e| TaskFileError::BadTask {
            line,
            message: e.to_string(),
        })?;
        tasks.push(task);
    }
    TaskSet::new(tasks).map_err(|_| TaskFileError::Empty)
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "these tests compare floats exactly on purpose: each expected value is computed the same way or is exactly representable"
)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_set() {
        let text = "# Table 2\n8 3\n10 3 # medium\n\n14 1\n";
        let set = parse_task_set(text).unwrap();
        assert_eq!(set.len(), 3);
        assert!((set.total_utilization() - 0.746_428_571).abs() < 1e-6);
    }

    #[test]
    fn parses_offsets() {
        let set = parse_task_set("10 2 5\n").unwrap();
        assert_eq!(set.tasks()[0].offset().as_ms(), 5.0);
    }

    #[test]
    fn rejects_garbage_with_line_numbers() {
        let err = parse_task_set("8 3\nnot a task\n").unwrap_err();
        assert!(matches!(err, TaskFileError::BadLine { line: 2, .. }));
        let err = parse_task_set("8 3 1 7\n").unwrap_err();
        assert!(matches!(err, TaskFileError::BadLine { line: 1, .. }));
        let err = parse_task_set("nan 3\n").unwrap_err();
        assert!(matches!(err, TaskFileError::BadLine { line: 1, .. }));
        let err = parse_task_set("8 3\n8 inf\n").unwrap_err();
        assert!(matches!(err, TaskFileError::BadLine { line: 2, .. }));
    }

    #[test]
    fn rejects_invalid_tasks_with_line_numbers() {
        let err = parse_task_set("8 9\n").unwrap_err();
        assert!(matches!(err, TaskFileError::BadTask { line: 1, .. }));
    }

    #[test]
    fn rejects_empty_input() {
        assert_eq!(
            parse_task_set("# nothing\n").unwrap_err(),
            TaskFileError::Empty
        );
    }
}
