//! Chrome trace-event JSON export of wall-clock spans (`--trace-out`).
//!
//! The sort attaches a [`SpanSink`] to the machine and its storage
//! backend; every disk worker records one span per kernel round and the
//! machine records one span per phase. This module serializes the sink
//! into the [trace-event format] that Perfetto and `chrome://tracing`
//! load directly: one named thread track per registered tid, `B`/`E`
//! duration pairs with microsecond timestamps.
//!
//! The JSON is written by hand: the format is a flat event array, and
//! its names go through the run artifact's string escaper.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::artifact::esc;
use pdm_model::prelude::SpanSink;
use std::io::{BufWriter, Write};

/// Nanoseconds → fractional microseconds (the format's `ts` unit).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Write every span in `sink` to `path` as Chrome trace-event JSON.
/// Returns the number of spans written.
///
/// Track names come from the sink's registry (`disk0 read`, `disk0
/// write`, …, `phases`) and are emitted as `thread_name` metadata; spans
/// are sorted per track by start time, so each track's timestamps are
/// monotone (every worker records its spans sequentially).
pub fn write_chrome_trace(path: &str, sink: &SpanSink) -> std::io::Result<usize> {
    let mut spans = sink.spans();
    spans.sort_by_key(|s| (s.tid, s.start_ns));
    let mut f = BufWriter::new(std::fs::File::create(path)?);
    write!(f, "{{\"traceEvents\":[")?;
    let mut first = true;
    let mut emit = |f: &mut BufWriter<std::fs::File>, ev: String| -> std::io::Result<()> {
        if !first {
            write!(f, ",")?;
        }
        first = false;
        write!(f, "{ev}")
    };
    emit(
        &mut f,
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"pdmsort\"}}"
            .into(),
    )?;
    for (tid, name) in sink.tracks() {
        emit(
            &mut f,
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                esc(&name)
            ),
        )?;
    }
    for s in &spans {
        let name = esc(&s.name);
        emit(
            &mut f,
            format!(
                "{{\"ph\":\"B\",\"pid\":1,\"tid\":{},\"name\":\"{name}\",\"ts\":{}}}",
                s.tid,
                us(s.start_ns)
            ),
        )?;
        emit(
            &mut f,
            format!(
                "{{\"ph\":\"E\",\"pid\":1,\"tid\":{},\"name\":\"{name}\",\"ts\":{}}}",
                s.tid,
                us(s.start_ns + s.dur_ns)
            ),
        )?;
    }
    write!(f, "]}}")?;
    f.flush()?;
    Ok(spans.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("pdmcli-trace-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn escapes_json_specials() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("x\ny"), "x\\u000ay");
    }

    #[test]
    fn nanos_render_as_fractional_micros() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(1_500), "1.500");
        assert_eq!(us(2_000_007), "2000.007");
    }

    #[test]
    fn trace_file_has_tracks_and_balanced_pairs() {
        let sink = SpanSink::new(64);
        sink.register_track(0, "disk0 read");
        sink.register_track(1, "disk0 write");
        let t0 = Instant::now();
        sink.record(0, "read", t0, t0 + Duration::from_micros(10));
        sink.record(
            1,
            "write",
            t0 + Duration::from_micros(2),
            t0 + Duration::from_micros(5),
        );
        sink.record(
            0,
            "read",
            t0 + Duration::from_micros(12),
            t0 + Duration::from_micros(15),
        );
        let path = tmp("basic.json");
        let n = write_chrome_trace(&path, &sink).unwrap();
        assert_eq!(n, 3);
        let txt = std::fs::read_to_string(&path).unwrap();
        assert!(txt.starts_with("{\"traceEvents\":["));
        assert!(txt.ends_with("]}"));
        assert!(txt.contains("\"thread_name\""));
        assert!(txt.contains("disk0 read"));
        assert_eq!(txt.matches("\"ph\":\"B\"").count(), 3);
        assert_eq!(txt.matches(&"\"ph\":\"E\"".to_string()).count(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_sink_still_writes_valid_skeleton() {
        let sink = SpanSink::new(4);
        let path = tmp("empty.json");
        assert_eq!(write_chrome_trace(&path, &sink).unwrap(), 0);
        let txt = std::fs::read_to_string(&path).unwrap();
        assert!(txt.contains("process_name"));
        std::fs::remove_file(&path).ok();
    }
}
