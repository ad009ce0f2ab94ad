//! The protocol text that travels inside frames.
//!
//! Every payload is UTF-8 text whose first line is a verb. Queries and
//! view definitions travel as DL source (`crates/dl` round-trips its
//! parse/pretty pair, so the AST is the wire format's semantics);
//! transactions travel as one op per line. Replies mirror the same
//! shape. [`Request`] and [`Response`] each have a `parse`/`render`
//! pair that is an identity on values — the protocol round-trip
//! property suite drills exactly that, the way the DL suite drills the
//! printer.
//!
//! ```text
//! request  := PING | BYE
//!           | MATERIALIZE <name>
//!           | QUERY \n <dl query-class>
//!           | EXPLAIN \n <dl query-class>
//!           | DEFVIEW \n <dl query-class>
//!           | TXN <n> \n (<op> \n?){n}
//!           | STATS | STATS SLOW
//!           | ADVISE
//! op       := add <obj>
//!           | class (+|-) <obj> <class>
//!           | attr (+|-) <from> <attr> <to>
//! response := PONG <version> | OK <version> | COMMITTED <version>
//!           | BUSY <detail>
//!           | ERR <code> <message>
//!           | ANSWERS <version> <n> \n (<name> \n?){n}
//!           | REPORT <version> <n> \n (<line> \n?){n}
//! ```
//!
//! `EXPLAIN` answers with a `REPORT` whose lines are the structured
//! plan text of [`subq_oodb::ExplainReport::render_lines`]; `STATS`
//! answers with the metrics registry in Prometheus text exposition;
//! `STATS SLOW` answers with the slow-query ring, one
//! `<micros> <label>` line per retained entry, oldest first. `ADVISE`
//! forces one advisor pass through the writer and answers with the
//! advisor's candidate table (`candidate …` lines, hottest first, then
//! one `advisor …` summary line — see
//! [`subq_oodb::Advisor::report_lines`]).

use std::fmt;
use subq_dl::pretty::render_query;
use subq_dl::{parse_query, QueryClassDecl};

/// Cap on ops per transaction — admission control against a single
/// frame smuggling unbounded writer work.
pub const MAX_TXN_OPS: usize = 4096;

/// One mutation inside a [`Request::Txn`], by object name (objects are
/// created on demand, mirroring `subq_workload::ChurnOp::apply`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxnOp {
    /// `add <obj>`: create an object.
    Add { object: String },
    /// `class +|- <obj> <class>`: assert or retract a class membership.
    Class {
        assert: bool,
        object: String,
        class: String,
    },
    /// `attr +|- <from> <attr> <to>`: assert or retract an attribute pair.
    Attr {
        assert: bool,
        from: String,
        attr: String,
        to: String,
    },
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered from the worker's snapshot.
    Ping,
    /// Graceful close: the server replies `OK` and closes after flushing.
    Bye,
    /// Evaluate a query class against the worker's snapshot.
    Query(QueryClassDecl),
    /// Explain how a query class would be planned and executed, without
    /// evaluating it; answered with a [`Response::Report`].
    Explain(QueryClassDecl),
    /// Declare a new view (schema DDL) and materialize it.
    DefView(QueryClassDecl),
    /// Materialize an already-declared query or schema class as a view.
    Materialize { name: String },
    /// Apply one write transaction through the single writer.
    Txn(Vec<TxnOp>),
    /// Read the metrics registry (`slow = false`) or the slow-query ring
    /// (`slow = true`); answered with a [`Response::Report`].
    Stats { slow: bool },
    /// Force one advisor pass and read the candidate table; answered
    /// with a [`Response::Report`]. Routed through the writer — mining
    /// and materialization only ever happen between transactions.
    Advise,
}

/// Typed error classes carried by [`Response::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Request text (or embedded DL) failed to parse or validate.
    Parse,
    /// A referenced name is not declared in the model.
    Unknown,
    /// Frame length over the cap — connection closes after this reply.
    TooBig,
    /// Frame checksum mismatch — connection closes after this reply.
    BadCrc,
    /// Server-side failure (durable engine error, writer gone).
    Internal,
}

impl ErrorCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "PARSE",
            ErrorCode::Unknown => "UNKNOWN",
            ErrorCode::TooBig => "TOOBIG",
            ErrorCode::BadCrc => "BADCRC",
            ErrorCode::Internal => "INTERNAL",
        }
    }

    pub fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "PARSE" => ErrorCode::Parse,
            "UNKNOWN" => ErrorCode::Unknown,
            "TOOBIG" => ErrorCode::TooBig,
            "BADCRC" => ErrorCode::BadCrc,
            "INTERNAL" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A server reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Liveness answer with the answering snapshot's data version.
    Pong { version: u64 },
    /// DDL or close acknowledged at `version`.
    Ok { version: u64 },
    /// Transaction committed; `version` is the published boundary.
    Committed { version: u64 },
    /// Query answers from the snapshot at `version`.
    Answers { version: u64, names: Vec<String> },
    /// Admission control: the write queue is full; retry later.
    Busy { detail: String },
    /// A typed error.
    Error { code: ErrorCode, message: String },
    /// Structured observability text (EXPLAIN plans, STATS expositions)
    /// from the snapshot at `version`, one datum per line.
    Report { version: u64, lines: Vec<String> },
}

/// Why a request failed to parse; becomes an `ERR` reply.
pub type ParseFailure = (ErrorCode, String);

fn ident_ok(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| !c.is_whitespace() && !c.is_control())
}

fn parse_ident(word: Option<&str>, what: &str) -> Result<String, ParseFailure> {
    match word {
        Some(w) if ident_ok(w) => Ok(w.to_owned()),
        Some(w) => Err((ErrorCode::Parse, format!("invalid {what}: {w:?}"))),
        None => Err((ErrorCode::Parse, format!("missing {what}"))),
    }
}

fn parse_sign(word: Option<&str>) -> Result<bool, ParseFailure> {
    match word {
        Some("+") => Ok(true),
        Some("-") => Ok(false),
        other => Err((
            ErrorCode::Parse,
            format!("expected + or -, found {other:?}"),
        )),
    }
}

fn end_of_line(mut words: std::str::SplitWhitespace<'_>) -> Result<(), ParseFailure> {
    match words.next() {
        None => Ok(()),
        Some(extra) => Err((
            ErrorCode::Parse,
            format!("unexpected trailing token {extra:?}"),
        )),
    }
}

impl TxnOp {
    fn render(&self, out: &mut String) {
        match self {
            TxnOp::Add { object } => {
                out.push_str("add ");
                out.push_str(object);
            }
            TxnOp::Class {
                assert,
                object,
                class,
            } => {
                out.push_str(if *assert { "class + " } else { "class - " });
                out.push_str(object);
                out.push(' ');
                out.push_str(class);
            }
            TxnOp::Attr {
                assert,
                from,
                attr,
                to,
            } => {
                out.push_str(if *assert { "attr + " } else { "attr - " });
                out.push_str(from);
                out.push(' ');
                out.push_str(attr);
                out.push(' ');
                out.push_str(to);
            }
        }
    }

    fn parse(line: &str) -> Result<TxnOp, ParseFailure> {
        let mut words = line.split_whitespace();
        let op = match words.next() {
            Some("add") => TxnOp::Add {
                object: parse_ident(words.next(), "object")?,
            },
            Some("class") => TxnOp::Class {
                assert: parse_sign(words.next())?,
                object: parse_ident(words.next(), "object")?,
                class: parse_ident(words.next(), "class")?,
            },
            Some("attr") => TxnOp::Attr {
                assert: parse_sign(words.next())?,
                from: parse_ident(words.next(), "object")?,
                attr: parse_ident(words.next(), "attribute")?,
                to: parse_ident(words.next(), "object")?,
            },
            other => {
                return Err((ErrorCode::Parse, format!("unknown txn op {other:?}")));
            }
        };
        end_of_line(words)?;
        Ok(op)
    }
}

impl Request {
    /// Renders to protocol text. Identifiers must satisfy the wire
    /// grammar (non-empty, no whitespace or control characters);
    /// rendering does not re-validate them.
    pub fn render(&self) -> String {
        match self {
            Request::Ping => "PING".to_owned(),
            Request::Bye => "BYE".to_owned(),
            Request::Query(query) => format!("QUERY\n{}", render_query(query)),
            Request::Explain(query) => format!("EXPLAIN\n{}", render_query(query)),
            Request::DefView(query) => format!("DEFVIEW\n{}", render_query(query)),
            Request::Materialize { name } => format!("MATERIALIZE {name}"),
            Request::Stats { slow } => {
                if *slow {
                    "STATS SLOW".to_owned()
                } else {
                    "STATS".to_owned()
                }
            }
            Request::Advise => "ADVISE".to_owned(),
            Request::Txn(ops) => {
                let mut out = format!("TXN {}\n", ops.len());
                for op in ops {
                    op.render(&mut out);
                    out.push('\n');
                }
                out
            }
        }
    }

    /// Parses protocol text; failures carry the typed error code the
    /// server replies with.
    pub fn parse(text: &str) -> Result<Request, ParseFailure> {
        let (first, rest) = match text.split_once('\n') {
            Some((first, rest)) => (first, rest),
            None => (text, ""),
        };
        let mut words = first.split_whitespace();
        match words.next() {
            Some("PING") => {
                end_of_line(words)?;
                Ok(Request::Ping)
            }
            Some("BYE") => {
                end_of_line(words)?;
                Ok(Request::Bye)
            }
            Some("MATERIALIZE") => {
                let name = parse_ident(words.next(), "view name")?;
                end_of_line(words)?;
                Ok(Request::Materialize { name })
            }
            Some("QUERY") => {
                end_of_line(words)?;
                let query =
                    parse_query(rest).map_err(|e| (ErrorCode::Parse, format!("bad query: {e}")))?;
                Ok(Request::Query(query))
            }
            Some("EXPLAIN") => {
                end_of_line(words)?;
                let query =
                    parse_query(rest).map_err(|e| (ErrorCode::Parse, format!("bad query: {e}")))?;
                Ok(Request::Explain(query))
            }
            Some("STATS") => match words.next() {
                None => Ok(Request::Stats { slow: false }),
                Some("SLOW") => {
                    end_of_line(words)?;
                    Ok(Request::Stats { slow: true })
                }
                Some(other) => Err((
                    ErrorCode::Parse,
                    format!("unknown STATS selector {other:?}"),
                )),
            },
            Some("ADVISE") => {
                end_of_line(words)?;
                Ok(Request::Advise)
            }
            Some("DEFVIEW") => {
                end_of_line(words)?;
                let query = parse_query(rest)
                    .map_err(|e| (ErrorCode::Parse, format!("bad view definition: {e}")))?;
                Ok(Request::DefView(query))
            }
            Some("TXN") => {
                let count: usize = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or((ErrorCode::Parse, "TXN needs an op count".to_owned()))?;
                end_of_line(words)?;
                if count > MAX_TXN_OPS {
                    return Err((
                        ErrorCode::Parse,
                        format!("transaction of {count} ops exceeds the {MAX_TXN_OPS}-op cap"),
                    ));
                }
                let mut lines = rest.lines();
                let mut ops = Vec::with_capacity(count);
                for _ in 0..count {
                    let line = lines.next().ok_or((
                        ErrorCode::Parse,
                        format!("TXN declared {count} ops, found {}", ops.len()),
                    ))?;
                    ops.push(TxnOp::parse(line)?);
                }
                if let Some(extra) = lines.next() {
                    if !extra.trim().is_empty() {
                        return Err((
                            ErrorCode::Parse,
                            format!("unexpected text after {count} txn ops: {extra:?}"),
                        ));
                    }
                }
                Ok(Request::Txn(ops))
            }
            other => Err((ErrorCode::Parse, format!("unknown verb {other:?}"))),
        }
    }
}

/// Appends the payload `Response::Answers { version, names }.render()`
/// renders, byte for byte, straight from `count` borrowed names: the
/// server streams query replies into their frame with it, without a
/// `Vec<String>` or a rendered `String` in between.
pub fn write_answers<'a>(
    out: &mut Vec<u8>,
    version: u64,
    count: usize,
    names: impl Iterator<Item = &'a str>,
) {
    out.extend_from_slice(format!("ANSWERS {version} {count}\n").as_bytes());
    for name in names {
        out.extend_from_slice(name.as_bytes());
        out.push(b'\n');
    }
}

impl Response {
    pub fn render(&self) -> String {
        match self {
            Response::Pong { version } => format!("PONG {version}"),
            Response::Ok { version } => format!("OK {version}"),
            Response::Committed { version } => format!("COMMITTED {version}"),
            Response::Answers { version, names } => {
                let mut out = format!("ANSWERS {version} {}\n", names.len());
                for name in names {
                    out.push_str(name);
                    out.push('\n');
                }
                out
            }
            Response::Busy { detail } => format!("BUSY {detail}"),
            Response::Error { code, message } => format!("ERR {code} {message}"),
            Response::Report { version, lines } => {
                let mut out = format!("REPORT {version} {}\n", lines.len());
                for line in lines {
                    out.push_str(line);
                    out.push('\n');
                }
                out
            }
        }
    }

    pub fn parse(text: &str) -> Result<Response, String> {
        let (first, rest) = match text.split_once('\n') {
            Some((first, rest)) => (first, rest),
            None => (text, ""),
        };
        let mut words = first.split_whitespace();
        let version = |w: Option<&str>| -> Result<u64, String> {
            w.and_then(|v| v.parse().ok())
                .ok_or_else(|| "missing or invalid version".to_owned())
        };
        match words.next() {
            Some("PONG") => Ok(Response::Pong {
                version: version(words.next())?,
            }),
            Some("OK") => Ok(Response::Ok {
                version: version(words.next())?,
            }),
            Some("COMMITTED") => Ok(Response::Committed {
                version: version(words.next())?,
            }),
            Some("ANSWERS") => {
                let version = version(words.next())?;
                let count: usize = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| "ANSWERS needs a count".to_owned())?;
                let names: Vec<String> = rest.lines().map(str::to_owned).collect();
                if names.len() != count {
                    return Err(format!(
                        "ANSWERS declared {count} names, found {}",
                        names.len()
                    ));
                }
                Ok(Response::Answers { version, names })
            }
            Some("REPORT") => {
                let version = version(words.next())?;
                let count: usize = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or_else(|| "REPORT needs a count".to_owned())?;
                let lines: Vec<String> = rest.lines().map(str::to_owned).collect();
                if lines.len() != count {
                    return Err(format!(
                        "REPORT declared {count} lines, found {}",
                        lines.len()
                    ));
                }
                Ok(Response::Report { version, lines })
            }
            Some("BUSY") => {
                let at = first.find("BUSY").expect("matched") + "BUSY".len();
                Ok(Response::Busy {
                    detail: first[at..].trim_start().to_owned(),
                })
            }
            Some("ERR") => {
                let code = words
                    .next()
                    .and_then(ErrorCode::parse)
                    .ok_or_else(|| "ERR needs a known code".to_owned())?;
                let prefix_len = first.find(code.as_str()).expect("matched") + code.as_str().len();
                Ok(Response::Error {
                    code,
                    message: first[prefix_len..].trim_start().to_owned(),
                })
            }
            other => Err(format!("unknown reply {other:?}")),
        }
    }
}
