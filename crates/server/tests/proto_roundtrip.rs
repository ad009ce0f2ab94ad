//! Round-trip property for the protocol boundary, extending the DL
//! suite's discipline to the wire: `parse(render(x)) == x` — exactly, as
//! values — for **every frame type** the server speaks, over hundreds of
//! seeded random instances. PR 3's quantifier-parenthesization bug was
//! caught by exactly this property one layer down; this suite would
//! catch the same class of printer gap in the protocol layer (an
//! unescaped newline, a dropped count, a verb that parses back as
//! something else), and any drift between the DL text embedded in
//! `QUERY`/`DEFVIEW` payloads and the parser that reads it back.
//!
//! The frame layer gets the same treatment: encode → split at arbitrary
//! seeded points → incremental decode is an identity on payload
//! sequences.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use subq_dl::{ConstraintExpr, LabeledPath, PathFilter, PathStep, QueryClassDecl, Term};
use subq_oodb::{Database, ObjSet};
use subq_server::frame::{encode_frame, encode_frame_with, FrameDecoder, DEFAULT_MAX_PAYLOAD};
use subq_server::proto::write_answers;
use subq_server::{ErrorCode, Request, Response, TxnOp};

const CLASSES: [&str; 5] = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon"];
const ATTRS: [&str; 4] = ["attr_a", "attr_b", "rel_c", "rel_d"];
const LABELS: [&str; 3] = ["l_1", "l_2", "l_3"];
const OBJECTS: [&str; 4] = ["obj_x", "obj_y", "obj_z", "o-42.7"];
const VARS: [&str; 3] = ["v1", "v2", "v3"];

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

fn random_term(rng: &mut StdRng) -> Term {
    match rng.gen_range(0..3u8) {
        0 => Term::This,
        1 => Term::Ident(pick(rng, &LABELS).to_owned()),
        _ => Term::Ident(pick(rng, &OBJECTS[..3]).to_owned()),
    }
}

fn random_constraint(rng: &mut StdRng, depth: usize) -> ConstraintExpr {
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.gen_range(0..3u8) {
            0 => ConstraintExpr::In(random_term(rng), pick(rng, &CLASSES).to_owned()),
            1 => ConstraintExpr::HasAttr(
                random_term(rng),
                pick(rng, &ATTRS).to_owned(),
                random_term(rng),
            ),
            _ => ConstraintExpr::Eq(random_term(rng), random_term(rng)),
        };
    }
    match rng.gen_range(0..5u8) {
        0 => ConstraintExpr::Not(Box::new(random_constraint(rng, depth - 1))),
        1 => ConstraintExpr::And(
            Box::new(random_constraint(rng, depth - 1)),
            Box::new(random_constraint(rng, depth - 1)),
        ),
        2 => ConstraintExpr::Or(
            Box::new(random_constraint(rng, depth - 1)),
            Box::new(random_constraint(rng, depth - 1)),
        ),
        3 => ConstraintExpr::Forall(
            pick(rng, &VARS).to_owned(),
            pick(rng, &CLASSES).to_owned(),
            Box::new(random_constraint(rng, depth - 1)),
        ),
        _ => ConstraintExpr::Exists(
            pick(rng, &VARS).to_owned(),
            pick(rng, &CLASSES).to_owned(),
            Box::new(random_constraint(rng, depth - 1)),
        ),
    }
}

fn random_query(rng: &mut StdRng, index: usize) -> QueryClassDecl {
    let is_a: Vec<String> = {
        let mut names = Vec::new();
        for _ in 0..rng.gen_range(0..=3usize) {
            let name = pick(rng, &CLASSES).to_owned();
            if !names.contains(&name) {
                names.push(name);
            }
        }
        names
    };
    let mut labels_in_use = Vec::new();
    let derived: Vec<LabeledPath> = (0..rng.gen_range(0..=2usize))
        .map(|_| {
            let label = if rng.gen_bool(0.6) {
                let label = pick(rng, &LABELS).to_owned();
                labels_in_use.push(label.clone());
                Some(label)
            } else {
                None
            };
            let steps = (0..rng.gen_range(1..=3usize))
                .map(|_| PathStep {
                    attr: pick(rng, &ATTRS).to_owned(),
                    filter: match rng.gen_range(0..3u8) {
                        0 => PathFilter::Any,
                        1 => PathFilter::Class(pick(rng, &CLASSES).to_owned()),
                        _ => PathFilter::Singleton(pick(rng, &OBJECTS[..3]).to_owned()),
                    },
                })
                .collect();
            LabeledPath { label, steps }
        })
        .collect();
    let where_eqs: Vec<(String, String)> = if labels_in_use.len() >= 2 {
        (0..rng.gen_range(0..=2usize))
            .map(|_| {
                (
                    labels_in_use[rng.gen_range(0..labels_in_use.len())].clone(),
                    labels_in_use[rng.gen_range(0..labels_in_use.len())].clone(),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    QueryClassDecl {
        name: format!("Q{index}"),
        is_a,
        derived,
        where_eqs,
        constraint: if rng.gen_bool(0.5) {
            let depth = rng.gen_range(1..=3);
            Some(random_constraint(rng, depth))
        } else {
            None
        },
    }
}

fn random_ident(rng: &mut StdRng) -> String {
    let pools = ["o", "obj", "K", "x_y", "n-7"];
    format!("{}{}", pick(rng, &pools), rng.gen_range(0..999u32))
}

fn random_txn_op(rng: &mut StdRng) -> TxnOp {
    match rng.gen_range(0..3u8) {
        0 => TxnOp::Add {
            object: random_ident(rng),
        },
        1 => TxnOp::Class {
            assert: rng.gen_bool(0.5),
            object: random_ident(rng),
            class: random_ident(rng),
        },
        _ => TxnOp::Attr {
            assert: rng.gen_bool(0.5),
            from: random_ident(rng),
            attr: pick(rng, &ATTRS).to_owned(),
            to: random_ident(rng),
        },
    }
}

fn random_request(rng: &mut StdRng, index: usize) -> Request {
    match rng.gen_range(0..9u8) {
        0 => Request::Ping,
        1 => Request::Bye,
        2 => Request::Query(random_query(rng, index)),
        3 => Request::DefView(random_query(rng, index)),
        4 => Request::Materialize {
            name: random_ident(rng),
        },
        5 => Request::Explain(random_query(rng, index)),
        6 => Request::Stats {
            slow: rng.gen_bool(0.5),
        },
        7 => Request::Advise,
        _ => Request::Txn(
            (0..rng.gen_range(0..=6usize))
                .map(|_| random_txn_op(rng))
                .collect(),
        ),
    }
}

/// A plausible `REPORT` payload line: metric exposition or plan text —
/// anything newline-free the registry or the explainer emits.
fn random_report_line(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4u8) {
        0 => format!(
            "subq_{}_total {}",
            random_ident(rng),
            rng.gen_range(0..1_000_000u64)
        ),
        1 => format!(
            "subq_{}_ns{{quantile=\"0.9\"}} {}",
            random_ident(rng),
            rng.gen_range(0..1_000_000u64)
        ),
        2 => format!(
            "probe {} {} subsumes",
            rng.gen_range(0..20u32),
            random_ident(rng)
        ),
        _ => format!("# TYPE {} counter", random_ident(rng)),
    }
}

fn random_response(rng: &mut StdRng) -> Response {
    let codes = [
        ErrorCode::Parse,
        ErrorCode::Unknown,
        ErrorCode::TooBig,
        ErrorCode::BadCrc,
        ErrorCode::Internal,
    ];
    match rng.gen_range(0..7u8) {
        0 => Response::Pong {
            version: rng.gen_range(0..u64::MAX),
        },
        6 => Response::Report {
            version: rng.gen_range(0..1_000_000),
            lines: (0..rng.gen_range(0..=10usize))
                .map(|_| random_report_line(rng))
                .collect(),
        },
        1 => Response::Ok {
            version: rng.gen_range(0..1_000_000),
        },
        2 => Response::Committed {
            version: rng.gen_range(0..1_000_000),
        },
        3 => Response::Answers {
            version: rng.gen_range(0..1_000_000),
            names: (0..rng.gen_range(0..=12usize))
                .map(|_| random_ident(rng))
                .collect(),
        },
        4 => Response::Busy {
            detail: if rng.gen_bool(0.3) {
                String::new()
            } else {
                "write queue of 64 is full; retry".to_owned()
            },
        },
        _ => Response::Error {
            code: codes[rng.gen_range(0..codes.len())],
            message: if rng.gen_bool(0.3) {
                String::new()
            } else {
                "line 3 col 9: expected identifier".to_owned()
            },
        },
    }
}

#[test]
fn every_request_frame_type_round_trips_exactly() {
    let mut rng = StdRng::seed_from_u64(0xE14_001);
    // Force at least one of each variant, then hundreds of random ones.
    let mut fixed = vec![
        Request::Ping,
        Request::Bye,
        Request::Materialize {
            name: "V0".to_owned(),
        },
        Request::Txn(Vec::new()),
        Request::Stats { slow: false },
        Request::Stats { slow: true },
        Request::Advise,
    ];
    fixed.extend((0..400).map(|i| random_request(&mut rng, i)));
    for (i, request) in fixed.iter().enumerate() {
        let text = request.render();
        let reparsed = Request::parse(&text)
            .unwrap_or_else(|e| panic!("request {i} failed to reparse: {e:?}\n{text}"));
        assert_eq!(
            &reparsed, request,
            "request {i} drifted through render\n{text}"
        );
    }
}

#[test]
fn every_response_frame_type_round_trips_exactly() {
    let mut rng = StdRng::seed_from_u64(0xE14_002);
    let mut fixed = vec![
        Response::Answers {
            version: 0,
            names: Vec::new(),
        },
        Response::Busy {
            detail: String::new(),
        },
        Response::Report {
            version: 0,
            lines: Vec::new(),
        },
    ];
    fixed.extend((0..400).map(|_| random_response(&mut rng)));
    for (i, response) in fixed.iter().enumerate() {
        let text = response.render();
        let reparsed = Response::parse(&text)
            .unwrap_or_else(|e| panic!("response {i} failed to reparse: {e}\n{text}"));
        assert_eq!(
            &reparsed, response,
            "response {i} drifted through render\n{text}"
        );
    }
}

#[test]
fn server_parse_pretty_reparse_is_identity_on_dl_payloads() {
    // The protocol embeds DL source verbatim; drill the embedding the
    // way the DL suite drills the printer: query → request text →
    // request → query, across the grammar.
    let mut rng = StdRng::seed_from_u64(0xE14_003);
    for i in 0..300 {
        let query = random_query(&mut rng, i);
        for wrap in [
            Request::Query(query.clone()),
            Request::DefView(query.clone()),
        ] {
            let text = wrap.render();
            match (wrap, Request::parse(&text).expect("reparses")) {
                (Request::Query(a), Request::Query(b)) => assert_eq!(a, b, "QUERY {i}"),
                (Request::DefView(a), Request::DefView(b)) => assert_eq!(a, b, "DEFVIEW {i}"),
                (sent, got) => panic!("verb drifted: sent {sent:?}, got {got:?}"),
            }
        }
    }
}

/// The server streams `ANSWERS` replies straight from the answer
/// bitmap into the outbound buffer, behind whatever it already holds;
/// the bytes must be exactly the framed `Response::render` text, for
/// empty, single and large answers.
#[test]
fn streamed_answer_frames_equal_the_rendered_reply() {
    let mut db = Database::new(subq_dl::DlModel::new());
    let ids: Vec<_> = (0..30_001)
        .map(|i| db.add_object(&format!("{}{i}", OBJECTS[i % OBJECTS.len()])))
        .collect();
    let one: ObjSet = ids[7..8].iter().copied().collect();
    let all: ObjSet = ids.iter().copied().collect();
    for (answers, version) in [(ObjSet::new(), 0u64), (one, 3), (all, 1 << 40)] {
        let names = answers.iter().map(|id| db.object_name(id).to_owned());
        let rendered = Response::Answers {
            version,
            names: names.collect(),
        }
        .render();
        let mut expected = Vec::new();
        encode_frame(b"queued", &mut expected);
        encode_frame(rendered.as_bytes(), &mut expected);

        let mut streamed = Vec::new();
        encode_frame(b"queued", &mut streamed);
        encode_frame_with(&mut streamed, |out| {
            let names = answers.iter().map(|id| db.object_name(id));
            write_answers(out, version, answers.len(), names);
        });
        assert!(
            streamed == expected,
            "{} answers: streamed frame differs from the rendered one",
            answers.len()
        );
    }
}

#[test]
fn frame_encoding_survives_arbitrary_packetization() {
    let mut rng = StdRng::seed_from_u64(0xE14_004);
    for _ in 0..50 {
        let payloads: Vec<Vec<u8>> = (0..rng.gen_range(1..=8usize))
            .map(|_| {
                (0..rng.gen_range(0..=600usize))
                    .map(|_| rng.gen_range(0..=255u8))
                    .collect()
            })
            .collect();
        let mut wire = Vec::new();
        for payload in &payloads {
            encode_frame(payload, &mut wire);
        }
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        let mut decoded = Vec::new();
        let mut at = 0;
        while at < wire.len() {
            let take = rng.gen_range(1..=64usize).min(wire.len() - at);
            decoder.extend(&wire[at..at + take]);
            at += take;
            while let Some(frame) = decoder.next_frame().expect("well-formed stream") {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded, payloads);
        assert_eq!(decoder.buffered(), 0);
    }
}

#[test]
fn malformed_request_text_yields_typed_parse_failures() {
    for text in [
        "",
        "NOPE",
        "PING extra",
        "MATERIALIZE",
        "MATERIALIZE two words",
        "TXN",
        "TXN x",
        "TXN 2\nadd a",
        "TXN 1\nfrob a",
        "TXN 1\nclass ? a K",
        "TXN 1\nadd a\nleftover",
        "TXN 999999\n",
        "QUERY\nnot a query",
        "QUERY\nClass C with\nend C",
        "DEFVIEW\n",
        "EXPLAIN\nnot dl",
        "STATS LOUD",
        "STATS SLOW extra",
        "ADVISE extra",
    ] {
        let failure = Request::parse(text);
        assert!(
            matches!(failure, Err((ErrorCode::Parse, _))),
            "{text:?} should fail with PARSE, got {failure:?}"
        );
    }
}
