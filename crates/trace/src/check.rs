//! The one JSONL trace reader, [`scan`], and its validator,
//! [`validate`], which adds the paper's recovery contract (§3): a
//! corrupt checkpoint is answered by a lineage fallback.

use std::fmt;
use std::io::BufRead;

use flint_simtime::SimTime;

use crate::{Event, EventKind, ParseError};

/// Why a JSONL trace was rejected. Line numbers are 1-based.
#[derive(Debug)]
pub enum TraceError {
    /// Line `.0` could not be read (an I/O error or invalid UTF-8).
    Read(usize, std::io::Error),
    /// Line `.0` is not an encoded [`Event`].
    Decode(usize, ParseError),
    /// Line `.0` has timestamp `.1`, earlier than the previous event's `.2`.
    Backwards(usize, SimTime, SimTime),
    /// The trace holds no events (only blank lines, or nothing).
    Empty,
    /// Corrupt-checkpoint detections of these blocks, in detection order,
    /// that no `RestoreFallback` answered in a run that did not end in a
    /// typed failure.
    Unpaired(Vec<String>),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Read(line, e) => write!(f, "line {line}: read error: {e}"),
            TraceError::Decode(line, e) => write!(f, "line {line}: {e}"),
            TraceError::Backwards(line, t, prev) => {
                write!(
                    f,
                    "line {line}: timestamp {t} goes backwards (previous {prev})"
                )
            }
            TraceError::Empty => f.write_str("no events"),
            TraceError::Unpaired(blocks) => write!(
                f,
                "{} corrupt-checkpoint detection(s) never answered by a \
                 restore fallback or typed failure: {blocks:?}",
                blocks.len()
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// Streams a JSONL event trace, enforcing that every non-blank line
/// decodes, that there is at least one event, and that timestamps never
/// go backwards. Each event is handed to `on_event` and dropped, so
/// traces of any size scan in constant memory. Returns the event count.
pub fn scan(reader: impl BufRead, mut on_event: impl FnMut(&Event)) -> Result<u64, TraceError> {
    let mut events = 0u64;
    let mut last_t = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| TraceError::Read(i + 1, e))?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::from_json(&line).map_err(|e| TraceError::Decode(i + 1, e))?;
        match last_t {
            Some(prev) if ev.t < prev => return Err(TraceError::Backwards(i + 1, ev.t, prev)),
            _ => last_t = Some(ev.t),
        }
        on_event(&ev);
        events += 1;
    }
    if events == 0 {
        return Err(TraceError::Empty);
    }
    Ok(events)
}

/// What [`validate`] found in a trace that passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validated {
    /// Events in the trace.
    pub events: u64,
    /// Corrupt-checkpoint detections answered by a `RestoreFallback`.
    pub pairs: u64,
}

/// [`scan`] plus the fault/recovery pairing rule: every
/// `CheckpointCorruptDetected` for a block must be answered later in the
/// stream by a `RestoreFallback` for the same block, unless the run
/// ended in a typed failure, visible as an action that started but never
/// finished.
pub fn validate(reader: impl BufRead) -> Result<Validated, TraceError> {
    let mut pending: Vec<String> = Vec::new();
    let mut pairs = 0u64;
    let mut open_actions = 0i64;
    let events = scan(reader, |ev| match &ev.kind {
        EventKind::CheckpointCorruptDetected { block } => pending.push(block.clone()),
        EventKind::RestoreFallback { block, .. } => {
            if let Some(pos) = pending.iter().position(|b| b == block) {
                pending.remove(pos);
                pairs += 1;
            }
        }
        EventKind::ActionStarted { .. } => open_actions += 1,
        EventKind::ActionFinished { .. } => open_actions -= 1,
        _ => {}
    })?;
    if pending.is_empty() || open_actions > 0 {
        Ok(Validated { events, pairs })
    } else {
        Err(TraceError::Unpaired(pending))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsAggregator;

    fn jsonl(events: &[(u64, EventKind)]) -> String {
        let mut out = String::new();
        for (ms, kind) in events {
            let ev = Event {
                t: SimTime::from_millis(*ms),
                kind: kind.clone(),
            };
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    fn started() -> EventKind {
        EventKind::ActionStarted {
            name: "collect".into(),
        }
    }

    fn finished() -> EventKind {
        EventKind::ActionFinished {
            name: "collect".into(),
            millis: 50,
        }
    }

    fn corrupt(block: &str) -> EventKind {
        EventKind::CheckpointCorruptDetected {
            block: block.into(),
        }
    }

    fn fallback(block: &str) -> EventKind {
        EventKind::RestoreFallback {
            block: block.into(),
            reason: "corrupt".into(),
        }
    }

    fn err(text: &str) -> String {
        validate(text.as_bytes()).unwrap_err().to_string()
    }

    #[test]
    fn read_error_names_its_line() {
        struct Broken;
        impl std::io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        let e = validate(std::io::BufReader::new(Broken)).unwrap_err();
        assert!(matches!(e, TraceError::Read(1, _)));
        assert_eq!(e.to_string(), "line 1: read error: disk gone");
    }

    #[test]
    fn decode_error_names_its_line() {
        let text = format!("{}garbage\n", jsonl(&[(0, started())]));
        assert_eq!(err(&text), "line 2: malformed JSON: expected '{'");
    }

    #[test]
    fn backwards_timestamp_names_its_line() {
        let text = jsonl(&[(2000, started()), (1000, finished())]);
        assert_eq!(
            err(&text),
            "line 2: timestamp t+1.00s goes backwards (previous t+2.00s)"
        );
    }

    #[test]
    fn empty_and_blank_traces_are_rejected() {
        assert_eq!(err(""), "no events");
        assert_eq!(err("\n  \n"), "no events");
    }

    #[test]
    fn unanswered_detection_in_a_finished_run_is_rejected() {
        let text = jsonl(&[(0, started()), (10, corrupt("rdd(1:0)")), (20, finished())]);
        assert_eq!(
            err(&text),
            "1 corrupt-checkpoint detection(s) never answered by a restore fallback \
             or typed failure: [\"rdd(1:0)\"]"
        );
    }

    #[test]
    fn unanswered_detection_under_an_open_action_is_a_typed_failure() {
        let text = jsonl(&[(0, started()), (10, corrupt("rdd(1:0)"))]);
        assert_eq!(
            validate(text.as_bytes()).unwrap(),
            Validated {
                events: 2,
                pairs: 0
            }
        );
    }

    #[test]
    fn fallbacks_pair_with_detections_of_the_same_block() {
        let text = jsonl(&[
            (0, started()),
            (10, corrupt("rdd(1:0)")),
            (10, corrupt("rdd(1:1)")),
            (15, fallback("rdd(9:9)")),
            (20, fallback("rdd(1:1)")),
            (20, fallback("rdd(1:0)")),
            (30, finished()),
        ]);
        let blank_lines = text.replace('\n', "\n\n");
        assert_eq!(
            validate(blank_lines.as_bytes()).unwrap(),
            Validated {
                events: 7,
                pairs: 2
            }
        );
    }

    #[test]
    fn scan_streams_the_same_fold_as_memory() {
        let events: Vec<Event> = [
            (0, started()),
            (10, EventKind::WaveStarted { tasks: 2 }),
            (
                20,
                EventKind::TaskFinished {
                    kind: "shuffle".into(),
                    id: 0,
                    part: 0,
                    worker: 1,
                    millis: 500,
                },
            ),
            (30, corrupt("rdd(1:0)")),
            (35, fallback("rdd(1:0)")),
            (40, EventKind::Stalled { millis: 1000 }),
            (60, finished()),
            (
                70,
                EventKind::InstanceBilled {
                    instance: 1,
                    cost: 0.25,
                },
            ),
        ]
        .into_iter()
        .map(|(ms, kind)| Event {
            t: SimTime::from_millis(ms),
            kind,
        })
        .collect();
        let text: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let mut streamed = MetricsAggregator::new();
        let n = scan(text.as_bytes(), |ev| streamed.observe(ev)).unwrap();
        assert_eq!(n, events.len() as u64);
        // The rendered summary is a full-field comparison.
        assert_eq!(
            streamed.to_string(),
            MetricsAggregator::from_events(&events).to_string()
        );
    }
}
