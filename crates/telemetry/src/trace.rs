//! Structured trace sinks: JSONL event streams for debugging.
//!
//! A [`TraceSink`] is a shared, buffered, line-oriented writer. The data
//! plane serializes each packet walk (a `ForwardingOutcome`) as one JSON
//! line, so a failed recovery can be replayed hop by hop with nothing
//! more than `grep` and `jq`. Emission is best-effort: a full disk must
//! not take down a simulation, so write errors are counted, not raised.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct SinkInner {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
    lines: AtomicU64,
    errors: AtomicU64,
}

/// A clonable handle to a shared JSONL output stream.
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<SinkInner>,
}

impl TraceSink {
    /// Create (truncate) a JSONL file at `path`, creating parent
    /// directories.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<TraceSink> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Ok(TraceSink::from_writer(Box::new(file)))
    }

    /// An in-memory sink plus a handle to the captured bytes. Intended
    /// for tests that assert on emitted lines without touching disk.
    pub fn in_memory() -> (TraceSink, Arc<Mutex<Vec<u8>>>) {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .expect("shared buffer lock")
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let sink = TraceSink::from_writer(Box::new(Shared(Arc::clone(&buf))));
        (sink, buf)
    }

    /// Wrap any writer (used by tests to capture into memory).
    pub fn from_writer(writer: Box<dyn Write + Send>) -> TraceSink {
        TraceSink {
            inner: Arc::new(SinkInner {
                writer: Mutex::new(BufWriter::new(writer)),
                lines: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            }),
        }
    }

    /// Append one line (a newline is added). Best-effort: errors are
    /// counted in [`TraceSink::error_count`] instead of propagating.
    pub fn emit(&self, line: &str) {
        let mut w = self.inner.writer.lock().expect("trace sink lock");
        let ok = w
            .write_all(line.as_bytes())
            .and_then(|_| w.write_all(b"\n"))
            .is_ok();
        if ok {
            self.inner.lines.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inner.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lines successfully emitted.
    pub fn line_count(&self) -> u64 {
        self.inner.lines.load(Ordering::Relaxed)
    }

    /// Write errors swallowed so far.
    pub fn error_count(&self) -> u64 {
        self.inner.errors.load(Ordering::Relaxed)
    }

    /// Flush buffered output to the underlying writer.
    pub fn flush(&self) -> std::io::Result<()> {
        self.inner.writer.lock().expect("trace sink lock").flush()
    }
}

impl Drop for SinkInner {
    fn drop(&mut self) {
        if let Ok(mut w) = self.writer.lock() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_sink_roundtrip() {
        let dir = std::env::temp_dir().join("splice-telemetry-trace");
        let path = dir.join("walks.jsonl");
        let sink = TraceSink::create(&path).unwrap();
        sink.emit(r#"{"hop":1}"#);
        sink.emit(r#"{"hop":2}"#);
        sink.flush().unwrap();
        assert_eq!(sink.line_count(), 2);
        assert_eq!(sink.error_count(), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"hop\":1}\n{\"hop\":2}\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// N threads interleave JSONL emission; every captured line must be
    /// one of the exact lines some thread emitted — a torn write would
    /// surface as a spliced or truncated line.
    #[test]
    fn concurrent_writers_never_tear_lines() {
        let (sink, buf) = TraceSink::in_memory();
        let threads = 8u64;
        let per_thread = 250u64;
        // Long enough to straddle internal buffer boundaries.
        fn line_for(t: u64, i: u64) -> String {
            let pad = "x".repeat(97);
            format!(r#"{{"thread":{t},"seq":{i},"pad":"{pad}"}}"#)
        }

        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let sink = sink.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        sink.emit(&line_for(t, i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        sink.flush().unwrap();
        assert_eq!(sink.line_count(), threads * per_thread);
        assert_eq!(sink.error_count(), 0);

        let bytes = buf.lock().unwrap();
        let text = std::str::from_utf8(&bytes).expect("output is valid UTF-8");
        let mut expected = std::collections::HashSet::new();
        for t in 0..threads {
            for i in 0..per_thread {
                expected.insert(line_for(t, i));
            }
        }
        let mut seen = 0u64;
        for line in text.lines() {
            assert!(
                expected.remove(line),
                "line is torn, duplicated, or corrupted: {line:?}"
            );
            seen += 1;
        }
        assert_eq!(seen, threads * per_thread, "every emitted line arrived");
        assert!(expected.is_empty());
    }

    #[test]
    fn clones_share_the_stream() {
        let dir = std::env::temp_dir().join("splice-telemetry-trace-clone");
        let path = dir.join("walks.jsonl");
        let sink = TraceSink::create(&path).unwrap();
        let clone = sink.clone();
        sink.emit("a");
        clone.emit("b");
        assert_eq!(sink.line_count(), 2);
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
