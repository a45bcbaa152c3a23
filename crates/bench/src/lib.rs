//! # hpmp-bench
//!
//! The reproduction harness: text-table formatting shared by the `repro`
//! binary (which regenerates every table and figure of the paper) and the
//! Criterion benches, the worker pool both binaries run jobs on, and the
//! [`artifacts`] flags and writers `repro` and `hpmpsim` share.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifacts;
mod harness;

pub use harness::{
    print_walks_headline, Bencher, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};

use std::cell::RefCell;
use std::fmt::Write as _;

thread_local! {
    /// Per-thread redirect target for [`Report::print`]. When set, rendered
    /// reports append here instead of going to stdout, so the multi-threaded
    /// experiment runner can emit them later in a deterministic order.
    static CAPTURE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Runs `f` with every [`Report::print`] on this thread redirected into a
/// buffer, returning `f`'s result together with the captured text.
///
/// Capture is per-thread, so worker threads running independent experiments
/// each collect their own output. Nesting is not supported: the inner call
/// would steal the outer buffer.
pub fn capture_reports<R>(f: impl FnOnce() -> R) -> (R, String) {
    CAPTURE.with(|slot| *slot.borrow_mut() = Some(String::new()));
    let result = f();
    let text = CAPTURE
        .with(|slot| slot.borrow_mut().take())
        .unwrap_or_default();
    (result, text)
}

/// Runs `count` independent jobs on up to `jobs` worker threads and returns
/// their outputs **in job-index order**, regardless of completion order.
///
/// Workers claim indices from a shared counter, so long jobs never leave a
/// thread idle while work remains. As soon as every job before index `i` has
/// finished, `emit` is called with job `i`'s output — callers use this to
/// stream per-job stdout buffers progressively while preserving a
/// deterministic order. With `jobs == 1` the single worker claims indices
/// sequentially, so the run *is* the serial run; with more workers only
/// wall-clock changes, never output.
pub fn run_ordered<T: Send>(
    count: usize,
    jobs: usize,
    run: impl Fn(usize) -> T + Sync,
    mut emit: impl FnMut(&T),
) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    let jobs = jobs.max(1).min(count.max(1));
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(count, || None);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let run = &run;
        let next = &next;
        for _ in 0..jobs {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                if tx.send((i, run(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut emitted = 0;
        for (i, out) in rx {
            results[i] = Some(out);
            while let Some(Some(out)) = results.get(emitted) {
                emit(out);
                emitted += 1;
            }
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every claimed job sends exactly one result"))
        .collect()
}

/// A simple left-aligned text table with a title, printed in the style of
/// the paper's tables.
#[derive(Clone, Debug)]
pub struct Report {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Starts a report with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Report {
        Report {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row; missing cells render empty, extras are kept.
    pub fn row(&mut self, cells: &[String]) -> &mut Report {
        self.rows.push(cells.to_vec());
        self
    }

    /// Appends a free-form note printed under the table.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Report {
        self.notes.push(note.into());
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(line, "{cell:<w$}  ");
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total.min(100)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// Prints the rendered table to stdout, or into the thread's capture
    /// buffer inside [`capture_reports`].
    pub fn print(&self) {
        let rendered = self.render();
        let captured = CAPTURE.with(|slot| {
            if let Some(buf) = slot.borrow_mut().as_mut() {
                buf.push_str(&rendered);
                buf.push('\n');
                true
            } else {
                false
            }
        });
        if !captured {
            println!("{rendered}");
        }
    }
}

/// Formats `value` as a percentage of `baseline` (`"110.0%"`).
pub fn pct(value: u64, baseline: u64) -> String {
    format!("{:.1}%", value as f64 * 100.0 / baseline as f64)
}

/// Formats a ratio as a percentage string.
pub fn pct_f(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new("T", &["a", "long-header", "c"]);
        r.row(&["x".into(), "y".into(), "zzz".into()]);
        r.note("hello");
        let s = r.render();
        assert!(s.contains("== T =="));
        assert!(s.contains("long-header"));
        assert!(s.contains("note: hello"));
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].starts_with("a "));
        assert!(lines[3].starts_with("x "));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(110, 100), "110.0%");
        assert_eq!(pct_f(0.155), "15.5%");
    }

    #[test]
    fn run_ordered_preserves_order_and_emits_in_order() {
        for jobs in [1, 3, 16] {
            let mut emitted = Vec::new();
            let results = run_ordered(8, jobs, |i| i * 10, |&v| emitted.push(v));
            assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
            assert_eq!(emitted, results, "jobs={jobs}");
        }
    }

    #[test]
    fn run_ordered_with_zero_jobs_or_count() {
        let results = run_ordered(0, 4, |i| i, |_| panic!("nothing to emit"));
        assert!(results.is_empty());
        let results = run_ordered(3, 0, |i| i, |_| {});
        assert_eq!(results, vec![0, 1, 2], "zero jobs clamps to one worker");
    }

    #[test]
    fn capture_redirects_print() {
        let ((), text) = capture_reports(|| {
            let mut r = Report::new("captured", &["col"]);
            r.row(&["v".into()]);
            r.print();
        });
        assert!(text.contains("== captured =="));
        // `print` appends the same trailing newline `println!` would add.
        assert!(text.ends_with("\n\n") || text.ends_with('\n'));
        // Capture ends with the closure: a later print goes to stdout,
        // which we can at least assert leaves the buffer untouched.
        let ((), empty) = capture_reports(|| {});
        assert!(empty.is_empty());
    }
}
