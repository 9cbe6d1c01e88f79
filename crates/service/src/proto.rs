//! The sweep protocol: typed messages over [`crate::frame`] frames.
//!
//! Payloads are rendered with the runtime's deterministic [`Json`]
//! writer and parsed with its strict reader, so a malformed peer is
//! rejected at decode time with a named first error — the same policy
//! [`SweepSpec::parse`](oraclesize_runtime::SweepSpec::parse) applies to
//! submitted jobs.
//!
//! | kind | message | direction |
//! |------|--------------|---------------------|
//! | 1 | [`Message::Submit`] | client → server |
//! | 2 | [`Message::Accepted`] | server → client |
//! | 3 | [`Message::Poll`] | client → server |
//! | 4 | [`Message::Status`] | server → client |
//! | 5 | [`Message::Want`] | worker → server |
//! | 6 | [`Message::Shard`] | server → worker |
//! | 7 | [`Message::NoWork`] | server → worker |
//! | 8 | [`Message::Result`] | worker → server |
//! | 9 | [`Message::Ack`] | server → worker |
//! | 10 | [`Message::Error`] | server → anyone |
//!
//! Result records carry report bodies in the checkpoint journal's
//! `{"ok": …}` / `{"err": …}` encoding
//! ([`oraclesize_runtime::journal::report_json`]), which is lossless for
//! every report.

use std::io::{self, Read, Write};

use oraclesize_runtime::Json;

use crate::frame::{read_frame, write_frame};

/// One record of a [`Message::Result`] batch: a sweep-wide cell index,
/// the seed the cell ran under, and its journal-encoded report body.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Sweep-wide cell index.
    pub cell: u64,
    /// The seed recorded for the cell (the spec's `cells[*].seed`).
    pub seed: u64,
    /// [`oraclesize_runtime::journal::report_json`] body.
    pub report: Json,
}

/// A protocol message. See the module table for kinds and directions.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Submit a sweep job: the spec's canonical JSON plus whether the
    /// server may prefill results from its own journal for this job.
    Submit {
        /// [`SweepSpec::to_json`](oraclesize_runtime::SweepSpec::to_json).
        spec: Json,
        /// Allow server-side journal resume for this job.
        resume: bool,
    },
    /// The job was admitted (or already known); `job` is the spec digest.
    Accepted {
        /// Job id — [`SweepSpec::digest`](oraclesize_runtime::SweepSpec::digest).
        job: u64,
        /// Total cells in the sweep.
        cells: u64,
    },
    /// Ask for a job's progress.
    Poll {
        /// Job id.
        job: u64,
    },
    /// Progress snapshot; `artifact` is present exactly when `state` is
    /// `"done"`.
    Status {
        /// Job id.
        job: u64,
        /// `"running"` or `"done"`.
        state: String,
        /// Cells merged so far.
        done: u64,
        /// Total cells.
        total: u64,
        /// The merged artifact file contents, byte-identical to a local
        /// run's `BENCH_<NAME>.json`.
        artifact: Option<String>,
    },
    /// A worker asking for a shard.
    Want {
        /// Worker name, for the server's log line.
        worker: String,
    },
    /// A shard lease: run cells `[lo, hi)` of job `job`'s `total`-cell
    /// grid. The spec travels with the first lease so workers need no
    /// side channel; they cache it per job afterwards.
    Shard {
        /// Job id.
        job: u64,
        /// Shard id within the job.
        shard: u64,
        /// First sweep-wide cell index of the shard.
        lo: u64,
        /// One past the last cell index.
        hi: u64,
        /// Total cells in the sweep.
        total: u64,
        /// The job's spec JSON.
        spec: Json,
    },
    /// No shard available right now; `done` means the server has
    /// finished its configured job count and the worker should exit.
    NoWork {
        /// `true`: shut down; `false`: poll again later.
        done: bool,
    },
    /// A completed shard's per-cell results.
    Result {
        /// Job id.
        job: u64,
        /// Shard id being returned.
        shard: u64,
        /// One record per cell of the shard, in cell order.
        records: Vec<CellRecord>,
    },
    /// The server merged a result batch.
    Ack {
        /// Job id.
        job: u64,
        /// Cells merged so far.
        done: u64,
        /// Total cells.
        total: u64,
    },
    /// A request was rejected; the text names the first error.
    Error {
        /// Human-readable reason.
        text: String,
    },
}

impl Message {
    /// This message's frame kind.
    pub fn kind(&self) -> u16 {
        match self {
            Message::Submit { .. } => 1,
            Message::Accepted { .. } => 2,
            Message::Poll { .. } => 3,
            Message::Status { .. } => 4,
            Message::Want { .. } => 5,
            Message::Shard { .. } => 6,
            Message::NoWork { .. } => 7,
            Message::Result { .. } => 8,
            Message::Ack { .. } => 9,
            Message::Error { .. } => 10,
        }
    }

    /// The JSON payload this message frames.
    pub fn to_json(&self) -> Json {
        match self {
            Message::Submit { spec, resume } => Json::obj()
                .field("spec", spec.clone())
                .field("resume", *resume),
            Message::Accepted { job, cells } => {
                Json::obj().field("job", *job).field("cells", *cells)
            }
            Message::Poll { job } => Json::obj().field("job", *job),
            Message::Status {
                job,
                state,
                done,
                total,
                artifact,
            } => {
                let mut j = Json::obj()
                    .field("job", *job)
                    .field("state", state.as_str())
                    .field("done", *done)
                    .field("total", *total);
                if let Some(a) = artifact {
                    j = j.field("artifact", a.as_str());
                }
                j
            }
            Message::Want { worker } => Json::obj().field("worker", worker.as_str()),
            Message::Shard {
                job,
                shard,
                lo,
                hi,
                total,
                spec,
            } => Json::obj()
                .field("job", *job)
                .field("shard", *shard)
                .field("lo", *lo)
                .field("hi", *hi)
                .field("total", *total)
                .field("spec", spec.clone()),
            Message::NoWork { done } => Json::obj().field("done", *done),
            Message::Result {
                job,
                shard,
                records,
            } => {
                let records: Vec<Json> = records
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .field("cell", r.cell)
                            .field("seed", r.seed)
                            .field("report", r.report.clone())
                    })
                    .collect();
                Json::obj()
                    .field("job", *job)
                    .field("shard", *shard)
                    .field("records", records)
            }
            Message::Ack { job, done, total } => Json::obj()
                .field("job", *job)
                .field("done", *done)
                .field("total", *total),
            Message::Error { text } => Json::obj().field("text", text.as_str()),
        }
    }

    /// Decodes a received frame.
    ///
    /// # Errors
    ///
    /// Returns a first-error message for an unknown kind, unparseable
    /// payload, or a missing/mis-typed field.
    pub fn decode(kind: u16, payload: &[u8]) -> Result<Message, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
        let j = oraclesize_runtime::json::parse(text)
            .ok_or_else(|| "payload is not canonical JSON".to_string())?;
        Ok(match kind {
            1 => Message::Submit {
                spec: req(&j, "spec")?.clone(),
                resume: req_bool(&j, "resume")?,
            },
            2 => Message::Accepted {
                job: req_u64(&j, "job")?,
                cells: req_u64(&j, "cells")?,
            },
            3 => Message::Poll {
                job: req_u64(&j, "job")?,
            },
            4 => Message::Status {
                job: req_u64(&j, "job")?,
                state: req_str(&j, "state")?,
                done: req_u64(&j, "done")?,
                total: req_u64(&j, "total")?,
                artifact: match j.get("artifact") {
                    Some(a) => Some(
                        a.as_str()
                            .ok_or_else(|| "status.artifact: expected a string".to_string())?
                            .to_string(),
                    ),
                    None => None,
                },
            },
            5 => Message::Want {
                worker: req_str(&j, "worker")?,
            },
            6 => Message::Shard {
                job: req_u64(&j, "job")?,
                shard: req_u64(&j, "shard")?,
                lo: req_u64(&j, "lo")?,
                hi: req_u64(&j, "hi")?,
                total: req_u64(&j, "total")?,
                spec: req(&j, "spec")?.clone(),
            },
            7 => Message::NoWork {
                done: req_bool(&j, "done")?,
            },
            8 => {
                let records = match req(&j, "records")? {
                    Json::Array(items) => items
                        .iter()
                        .enumerate()
                        .map(|(i, r)| {
                            Ok(CellRecord {
                                cell: req_u64(r, "cell")
                                    .map_err(|e| format!("records[{i}].{e}"))?,
                                seed: req_u64(r, "seed")
                                    .map_err(|e| format!("records[{i}].{e}"))?,
                                report: req(r, "report")
                                    .map_err(|e| format!("records[{i}].{e}"))?
                                    .clone(),
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                    _ => return Err("records: expected an array".to_string()),
                };
                Message::Result {
                    job: req_u64(&j, "job")?,
                    shard: req_u64(&j, "shard")?,
                    records,
                }
            }
            9 => Message::Ack {
                job: req_u64(&j, "job")?,
                done: req_u64(&j, "done")?,
                total: req_u64(&j, "total")?,
            },
            10 => Message::Error {
                text: req_str(&j, "text")?,
            },
            other => return Err(format!("unknown frame kind {other}")),
        })
    }
}

fn req<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("{key}: missing field"))
}

fn req_u64(j: &Json, key: &str) -> Result<u64, String> {
    req(j, key)?
        .as_u64()
        .ok_or_else(|| format!("{key}: expected an unsigned integer"))
}

fn req_str(j: &Json, key: &str) -> Result<String, String> {
    Ok(req(j, key)?
        .as_str()
        .ok_or_else(|| format!("{key}: expected a string"))?
        .to_string())
}

fn req_bool(j: &Json, key: &str) -> Result<bool, String> {
    req(j, key)?
        .as_bool()
        .ok_or_else(|| format!("{key}: expected a boolean"))
}

/// Frames and sends one message.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn send(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    write_frame(w, msg.kind(), msg.to_json().render().as_bytes())
}

/// Receives and decodes one message.
///
/// # Errors
///
/// I/O errors propagate; a frame that decodes to no valid message maps
/// to [`std::io::ErrorKind::InvalidData`].
pub fn recv(r: &mut impl Read) -> io::Result<Message> {
    let (kind, payload) = read_frame(r)?;
    Message::decode(kind, &payload).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame kind {kind}: {e}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let mut buf = Vec::new();
        send(&mut buf, &msg).unwrap();
        assert_eq!(recv(&mut buf.as_slice()).unwrap(), msg);
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Message::Submit {
            spec: Json::obj().field("version", 1u64),
            resume: true,
        });
        round_trip(Message::Accepted { job: 9, cells: 16 });
        round_trip(Message::Poll { job: 9 });
        round_trip(Message::Status {
            job: 9,
            state: "running".to_string(),
            done: 3,
            total: 16,
            artifact: None,
        });
        round_trip(Message::Status {
            job: 9,
            state: "done".to_string(),
            done: 16,
            total: 16,
            artifact: Some("{\"experiment\": \"t0\"}\n".to_string()),
        });
        round_trip(Message::Want {
            worker: "w-1".to_string(),
        });
        round_trip(Message::Shard {
            job: 9,
            shard: 2,
            lo: 4,
            hi: 8,
            total: 16,
            spec: Json::obj().field("version", 1u64),
        });
        round_trip(Message::NoWork { done: false });
        round_trip(Message::Result {
            job: 9,
            shard: 2,
            records: vec![CellRecord {
                cell: 4,
                seed: 4,
                report: Json::obj().field("err", "step limit"),
            }],
        });
        round_trip(Message::Ack {
            job: 9,
            done: 8,
            total: 16,
        });
        round_trip(Message::Error {
            text: "spec.version: unsupported".to_string(),
        });
    }

    #[test]
    fn decode_names_the_first_error() {
        let err = Message::decode(3, b"{\"jobs\": 1}").unwrap_err();
        assert_eq!(err, "job: missing field");
        let err = Message::decode(99, b"{}").unwrap_err();
        assert_eq!(err, "unknown frame kind 99");
        let err = Message::decode(1, b"not json").unwrap_err();
        assert_eq!(err, "payload is not canonical JSON");
    }

    #[test]
    fn deeply_nested_payload_is_an_error_not_an_abort() {
        // A megabyte of `[` inside a well-formed frame with a valid
        // digest: the framing accepts it, the JSON reader must refuse it.
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, "[".repeat(1 << 20).as_bytes()).unwrap();
        let err = recv(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not canonical JSON"), "{err}");
    }
}
