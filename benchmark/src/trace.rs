//! The traced rep's recorder: spans around every call into the façade,
//! counters sampled at step edges, one `op` span per sampled op id. All of
//! it stays in memory until the run ends.

use std::time::Instant;

use crate::json::Json;

/// At most this many `op` spans per rep are written (every k-th op id, the
/// stride is recorded), so a 250k-op window does not produce a 100 MB file.
pub const MAX_OP_SPANS: usize = 4000;

/// A phase of one rep, on the process-wide wall clock.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The group's counters at one step edge.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub wall_ns: u64,
    /// Group clock: virtual ns on sim, ns since group start on live.
    pub group_ns: u64,
    pub events: u64,
    pub deliveries: u64,
    pub wire_msgs: u64,
    pub wire_bytes: u64,
}

/// One op's life on the group clock: due → first member → last member.
#[derive(Clone, Copy, Debug)]
pub struct OpSpan {
    pub id: u32,
    pub due_ns: u64,
    pub first_ns: u64,
    pub last_ns: u64,
}

#[derive(Debug, Default)]
pub struct RepTrace {
    pub stack: &'static str,
    pub spans: Vec<Span>,
    pub samples: Vec<Sample>,
    pub ops: Vec<OpSpan>,
    pub op_stride: usize,
}

pub struct Tracer {
    origin: Instant,
    pub reps: Vec<RepTrace>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            reps: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn to_ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    pub fn begin_rep(&mut self, stack: &'static str) {
        self.reps.push(RepTrace {
            stack,
            op_stride: 1,
            ..RepTrace::default()
        });
    }

    pub fn rep(&mut self) -> &mut RepTrace {
        self.reps.last_mut().expect("begin_rep was called")
    }

    pub fn span(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.to_ns(start), self.to_ns(end));
        self.rep().spans.push(Span {
            name,
            start_ns,
            end_ns,
        });
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let span = |name: &str, start: u64, end: u64| {
            vec![
                ("name".to_string(), Json::Str(name.to_string())),
                ("start_ns".to_string(), num(start)),
                ("end_ns".to_string(), num(end)),
            ]
        };
        let reps = self
            .reps
            .iter()
            .map(|r| {
                let spans = r
                    .spans
                    .iter()
                    .map(|s| Json::Obj(span(s.name, s.start_ns, s.end_ns)))
                    .collect();
                let samples = r
                    .samples
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            num(s.wall_ns),
                            num(s.group_ns),
                            num(s.events),
                            num(s.deliveries),
                            num(s.wire_msgs),
                            num(s.wire_bytes),
                        ])
                    })
                    .collect();
                let ops = r
                    .ops
                    .iter()
                    .map(|o| {
                        let mut op = span("op", o.due_ns, o.last_ns);
                        op.push(("id".to_string(), num(o.id as u64)));
                        op.push((
                            "children".to_string(),
                            Json::Arr(vec![
                                Json::Obj(span("first", o.due_ns, o.first_ns)),
                                Json::Obj(span("spread", o.first_ns, o.last_ns)),
                            ]),
                        ));
                        Json::Obj(op)
                    })
                    .collect();
                Json::Obj(vec![
                    ("stack".to_string(), Json::Str(r.stack.to_string())),
                    ("spans".to_string(), Json::Arr(spans)),
                    (
                        "sample_columns".to_string(),
                        Json::Arr(
                            [
                                "wall_ns",
                                "group_ns",
                                "events",
                                "deliveries",
                                "wire_msgs",
                                "wire_bytes",
                            ]
                            .iter()
                            .map(|c| Json::Str(c.to_string()))
                            .collect(),
                        ),
                    ),
                    ("samples".to_string(), Json::Arr(samples)),
                    ("op_stride".to_string(), num(r.op_stride as u64)),
                    ("ops".to_string(), Json::Arr(ops)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".to_string(), Json::Str(workload.to_string())),
            ("seed".to_string(), num(seed)),
            (
                "clocks".to_string(),
                Json::Str(
                    "spans and sample wall_ns: ns since process start; op spans and sample \
                     group_ns: the group's clock (virtual on sim-*, ns since group start on live-*)"
                        .to_string(),
                ),
            ),
            ("reps".to_string(), Json::Arr(reps)),
        ])
    }
}
