//! Line capture for experiment output: the [`out!`](crate::out) and
//! [`outp!`](crate::outp) macros mirror `println!`/`print!` but
//! additionally append to a thread-local buffer while capture is active,
//! so the `reproduce` harness can embed each experiment's result series
//! into its JSON report without re-plumbing every experiment function.
//!
//! Capture has two modes: by default [`begin`] keeps echoing to stdout
//! (one lane streams results live), while a quiet capture buffers only —
//! several lanes run experiments concurrently and the harness replays
//! each buffer in paper order once its turn comes, so interleaved runs
//! still print clean reports.

use std::cell::RefCell;

#[derive(Default)]
struct Capture {
    buf: Option<String>,
    quiet: bool,
}

thread_local! {
    static STATE: RefCell<Capture> = RefCell::new(Capture::default());
}

/// Starts capturing subsequent [`out!`](crate::out)/[`outp!`](crate::outp)
/// output on this thread (clearing any previous capture), echoing it to
/// stdout unless `quiet`.
pub fn begin(quiet: bool) {
    let buf = Some(String::new());
    STATE.with(|s| *s.borrow_mut() = Capture { buf, quiet });
}

/// Stops capturing and returns the captured output as lines.
pub fn take() -> Vec<String> {
    STATE.with(|s| {
        let mut state = s.borrow_mut();
        state.quiet = false;
        state
            .buf
            .take()
            .map(|t| t.lines().map(str::to_string).collect())
            .unwrap_or_default()
    })
}

/// Writes to stdout (unless capturing quietly) and, when capture is
/// active, to the buffer. Implementation detail of the `out!`/`outp!`
/// macros.
pub fn emit(args: std::fmt::Arguments<'_>) {
    STATE.with(|s| {
        let mut state = s.borrow_mut();
        if !state.quiet {
            print!("{args}");
        }
        if let Some(buf) = state.buf.as_mut() {
            use std::fmt::Write;
            let _ = buf.write_fmt(args);
        }
    });
}

/// Like `println!`, but captured (see [`capture`](crate::capture)).
#[macro_export]
macro_rules! out {
    () => { $crate::capture::emit(format_args!("\n")) };
    ($($arg:tt)*) => {{
        $crate::capture::emit(format_args!($($arg)*));
        $crate::capture::emit(format_args!("\n"));
    }};
}

/// Like `print!`, but captured (see [`capture`](crate::capture)).
#[macro_export]
macro_rules! outp {
    ($($arg:tt)*) => { $crate::capture::emit(format_args!($($arg)*)) };
}

#[cfg(test)]
mod tests {
    #[test]
    fn capture_collects_lines_and_partial_prints() {
        super::begin(false);
        outp!("a = {}", 1);
        out!(", b = {}", 2);
        out!("second");
        let lines = super::take();
        assert_eq!(lines, vec!["a = 1, b = 2".to_string(), "second".into()]);
        // Capture is inactive after take(): emitting is stdout-only.
        out!("not captured");
        assert!(super::take().is_empty());
    }

    #[test]
    fn quiet_capture_still_buffers() {
        super::begin(true);
        out!("buffered only");
        assert_eq!(super::take(), vec!["buffered only".to_string()]);
    }
}
